/**
 * @file
 * Deterministic-ordering helpers, the allowlisted spellings for the
 * tlsa D1/D3 passes (tools/tlsa_det.py):
 *
 *  - OrderedView: materialize a sorted-by-key iteration order over an
 *    unordered associative container. Iterating an unordered_map on a
 *    result path is a D1 violation — the traversal order depends on
 *    bucket count, libstdc++ version and insertion history; wrapping
 *    the loop in OrderedView() states (and pays for) a canonical
 *    order instead.
 *  - canonicalSort: std::sort with a *key projection* instead of a
 *    raw comparator. A hand-written comparator with unspecified ties
 *    (`a.cost > b.cost`) leaves equal-cost elements in
 *    implementation-defined order; a key projection is totally
 *    ordered by construction (extend the key tuple until it is).
 *  - orderedReduce: left-to-right floating-point reduction over
 *    indexable results. Float addition does not associate, so a
 *    completion-order reduction across executor tasks is a D3
 *    violation; reducing the index-ordered slots is the blessed form.
 */

#ifndef BASE_DETORDER_H
#define BASE_DETORDER_H

#include <algorithm>
#include <utility>
#include <vector>

namespace tlsim {
namespace det {

/**
 * Sorted snapshot of an associative container's (key, mapped) pairs.
 * Keys must have a total order (integers, strings — not pointers,
 * which D1 rejects at the declaration). The snapshot copies: use on
 * aggregation/report paths, not per-record hot loops (A3 would flag
 * the allocation there anyway).
 */
template <typename Map>
auto
OrderedView(const Map &m)
{
    using Pair = std::pair<typename Map::key_type,
                           typename Map::mapped_type>;
    std::vector<Pair> out;
    out.reserve(m.size());
    for (const auto &kv : m)
        out.emplace_back(kv.first, kv.second);
    std::sort(out.begin(), out.end(),
              [](const Pair &a, const Pair &b) {
                  return a.first < b.first;
              });
    return out;
}

/** Set flavour: sorted snapshot of an unordered_set's elements. */
template <typename Set>
auto
OrderedKeys(const Set &s)
{
    std::vector<typename Set::key_type> out(s.begin(), s.end());
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Sort by a key projection. `key(elem)` must return a totally
 * ordered value (tuple of scalars); stable, so elements with equal
 * keys — which canonicalSort callers should design away — keep their
 * input order instead of an implementation-defined one.
 */
template <typename Range, typename KeyFn>
void
canonicalSort(Range &range, KeyFn key)
{
    std::stable_sort(range.begin(), range.end(),
                     [&key](const auto &a, const auto &b) {
                         return key(a) < key(b);
                     });
}

/**
 * Left-to-right reduction over index-ordered per-task results. The
 * accumulator visits slots 0..n-1 in order regardless of which
 * executor worker filled which slot, so float accumulation across
 * parallel tasks is reproducible for any job count.
 */
template <typename T, typename Acc, typename Fn>
Acc
orderedReduce(const std::vector<T> &slots, Acc init, Fn step)
{
    Acc acc = std::move(init);
    for (const T &v : slots)
        acc = step(std::move(acc), v);
    return acc;
}

} // namespace det
} // namespace tlsim

#endif // BASE_DETORDER_H
