/**
 * @file
 * Range-checked integral narrowing.
 *
 * The trace decode paths (sim/traceio, core/traceindex) consume
 * untrusted bytes, and a silent `static_cast` to a smaller type is
 * exactly the bug class that turns a corrupt file into corrupt
 * simulation state. Every narrowing conversion there goes through one
 * of these helpers — enforced by tlsa check T3, which flags any raw
 * fixed-width narrowing static_cast in those files:
 *
 *   checkedNarrow<T>(v)   value must be representable in T; panics
 *                         otherwise (decode-side contract violations
 *                         are simulator bugs or rejected-file bugs,
 *                         never silently absorbed);
 *   truncateNarrow<T>(v)  keeps the low bits by design (varint
 *                         payload splitting); the name records the
 *                         intent a bare cast leaves ambiguous.
 */

#ifndef BASE_NARROW_H
#define BASE_NARROW_H

#include <type_traits>
#include <utility>

#include "base/log.h"

namespace tlsim {

/** Narrow `v` to To, panicking if the value does not fit. */
template <typename To, typename From>
constexpr To
checkedNarrow(From v)
{
    static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                  "checkedNarrow is for integral types");
    if (!std::in_range<To>(v))
        panic("checkedNarrow: value %lld does not fit the target type",
              static_cast<long long>(v));
    return static_cast<To>(v);
}

/** Narrow `v` to To keeping the low bits (wrap is intended). */
template <typename To, typename From>
constexpr To
truncateNarrow(From v)
{
    static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                  "truncateNarrow is for integral types");
    return static_cast<To>(v);
}

} // namespace tlsim

#endif // BASE_NARROW_H
