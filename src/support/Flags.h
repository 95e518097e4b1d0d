//===- support/Flags.h - Strict command-line flag primitives --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces the flag codecs share: the compile flags (core/Compiler.h)
/// and the session flags (rt/Session.h) are each parsed by one strict
/// parser that offers an argument to the codec and learns whether it took
/// it. The same parsers decode what the encoders put on the daemon wire.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SUPPORT_FLAGS_H
#define DHPF_SUPPORT_FLAGS_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace dhpf {

/// What a flag codec made of one argument.
enum class FlagArg {
  NotMine, ///< not one of this codec's flags; the caller handles it
  Taken,   ///< stored in the options
  Bad,     ///< one of this codec's flags with a malformed value; Err names it
};

/// Strict decimal integer: the whole of \p S, no overflow.
inline bool parseInt(const std::string &S, int64_t &Out) {
  if (S.empty() || std::isspace(static_cast<unsigned char>(S[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

/// True when \p Arg is \p Prefix followed by a value, stored in \p Out.
inline bool flagValue(const std::string &Arg, const std::string &Prefix,
                      std::string &Out) {
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = Arg.substr(Prefix.size());
  return true;
}

} // namespace dhpf

#endif // DHPF_SUPPORT_FLAGS_H
