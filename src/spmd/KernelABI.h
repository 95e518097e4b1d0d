//===- spmd/KernelABI.h - C ABI between host and native kernels ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary contract between the host (spmd::RankCore, the per-rank
/// plan executor that in-process and distributed runs both drive) and the
/// native kernels NativeGen emits and KernelCache compiles with the system
/// C compiler. The declarations live in the DHPF_KERNEL_ABI_DECLS macro so
/// there is exactly one source of truth: this header expands it for the
/// C++ host, and NativeGen stringizes the same macro into the preamble of
/// every generated translation unit.
///
/// Kernels see the world through DhpfCtx: raw array storage with
/// per-element ownership for the inline fast path, callbacks for the slow
/// paths (overlay/pending reads, pending writes, validity violations),
/// the statement-semantics trampoline, a progress hook (the Figure 4
/// compute/comm overlap window), and a growable (partner, flat) pair
/// buffer for communication-event enumeration.
///
/// Compatibility is verified at load time, not assumed: the kernel bakes
/// DHPF_KERNEL_ABI_VERSION, sizeof(DhpfCtx) as the C compiler saw it, and
/// the plan fingerprint into its DhpfKernelTable, and the loader rejects
/// any mismatch. Fields are append-only; any layout change must bump
/// DHPF_KERNEL_ABI_VERSION (which also invalidates every cached kernel,
/// because the version participates in the cache key).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_KERNELABI_H
#define DHPF_SPMD_KERNELABI_H

#include <stdint.h>

#define DHPF_KERNEL_ABI_VERSION 1

/// The symbol every kernel exports; resolves to a DhpfEntryFn.
#define DHPF_KERNEL_ENTRY_SYMBOL "dhpf_kernel_entry"

// clang-format off
#define DHPF_KERNEL_ABI_DECLS                                                 \
  typedef struct DhpfCtx DhpfCtx;                                             \
  typedef double (*DhpfReadSlowFn)(DhpfCtx *, int32_t, int64_t);              \
  typedef void (*DhpfWriteSlowFn)(DhpfCtx *, int32_t, int64_t, double);       \
  typedef double (*DhpfStmtCbFn)(DhpfCtx *, int32_t, int32_t);                \
  typedef void (*DhpfHookFn)(DhpfCtx *);                                      \
  struct DhpfCtx {                                                            \
    void *Host;                 /* engine-private trampoline state */         \
    int32_t Me;                 /* executing processor rank */                \
    int32_t NumArrays;                                                        \
    double **Data;              /* [array id] raw storage base */             \
    const int32_t *const *Owner; /* [array id] owner map, 0 = unowned */      \
    const int64_t *Size;        /* [array id] element count */                \
    double *Reads;              /* statement read buffer (>= max arity) */    \
    const double *LeafCostSec;  /* [leaf id] Cost * SecPerWork */             \
    double *Clock;              /* simulated per-proc clock (or a dummy) */   \
    uint64_t *Stmts;            /* statement-instance counter */              \
    uint64_t ProgressCtr;       /* instances since the last Progress() */     \
    uint64_t ProgressEvery;     /* pump period; UINT64_MAX disables */        \
    DhpfReadSlowFn ReadSlow;    /* non-local / out-of-range element read */   \
    DhpfWriteSlowFn WriteSlow;  /* non-local / out-of-range element write */  \
    DhpfStmtCbFn Stmt;          /* statement semantics: (ctx, leaf, n) */     \
    DhpfHookFn Progress;        /* transport progress pump */                 \
    uint32_t *PairQ;            /* event enumeration: partner ranks */        \
    int64_t *PairF;             /* event enumeration: flat elements */        \
    uint64_t NumPairs;                                                        \
    uint64_t CapPairs;                                                        \
    DhpfHookFn GrowPairs;       /* enlarge PairQ/PairF, update CapPairs */    \
  };                                                                          \
  typedef void (*DhpfComputeFn)(DhpfCtx *, int64_t *);                        \
  typedef void (*DhpfEnumFn)(DhpfCtx *, int64_t *);                           \
  typedef double (*DhpfReduceFn)(const double *, uint64_t);                   \
  typedef void (*DhpfCopySpanFn)(double *, const double *, uint64_t);         \
  typedef void (*DhpfGatherFn)(double *, const double *, const int64_t *,     \
                               uint64_t);                                     \
  typedef struct DhpfKernelTable {                                            \
    int32_t AbiVersion;         /* DHPF_KERNEL_ABI_VERSION at emit time */    \
    int32_t NumCompute;                                                       \
    int32_t NumEvents;                                                        \
    int32_t NumReduce;                                                        \
    uint64_t Fingerprint;       /* FNV-1a of the TU body */                   \
    uint64_t CtxSize;           /* sizeof(DhpfCtx) as the C compiler saw */   \
    const DhpfComputeFn *Compute;   /* [NumCompute] */                        \
    const DhpfEnumFn *EventSend;    /* [NumEvents], entries may be 0 */       \
    const DhpfEnumFn *EventRecv;    /* [NumEvents], entries may be 0 */       \
    const DhpfReduceFn *Reduce;     /* [NumReduce] */                         \
    DhpfCopySpanFn CopySpan;    /* Section 3.3 contiguous pack/unpack */      \
    DhpfGatherFn Gather;        /* element-by-element pack */                 \
  } DhpfKernelTable;
// clang-format on

DHPF_KERNEL_ABI_DECLS

typedef const DhpfKernelTable *(*DhpfEntryFn)(void);

#endif // DHPF_SPMD_KERNELABI_H
