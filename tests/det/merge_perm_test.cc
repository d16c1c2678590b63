/**
 * @file
 * Generated-by-manifest permutation property tests for the mergers
 * declared in tools/detmergers.txt (tlsa pass D4).
 *
 * Every function the manifest declares order-insensitive must have a
 * registered property here that feeds it the same multiset of inputs
 * in several shard orders and demands an identical merged result; a
 * manifest entry with no registered property fails the suite (and
 * tlsa independently flags it as d4-untested, since this file is
 * the corpus its structural check greps).
 */

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/dethash.h"
#include "base/stats.h"

#ifndef TLSIM_DETMERGERS
#error "build must define TLSIM_DETMERGERS (path to tools/detmergers.txt)"
#endif

namespace {

using tlsim::det::combineUnordered;

std::vector<std::string>
loadManifest(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is) << "cannot open merger manifest " << path;
    std::vector<std::string> quals;
    std::string line;
    while (std::getline(is, line)) {
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        while (!line.empty() && std::isspace(
                   static_cast<unsigned char>(line.back())))
            line.pop_back();
        std::size_t b = 0;
        while (b < line.size() && std::isspace(
                   static_cast<unsigned char>(line[b])))
            ++b;
        line.erase(0, b);
        if (!line.empty())
            quals.push_back(line);
    }
    return quals;
}

/** Fold `items` with combineUnordered in the given order. */
std::uint64_t
foldDigests(const std::vector<std::uint64_t> &items)
{
    std::uint64_t acc = 0;
    for (std::uint64_t h : items)
        acc = combineUnordered(acc, h);
    return acc;
}

void
propertyCombineUnordered()
{
    std::mt19937_64 rng(0x5eedu);
    std::vector<std::uint64_t> items(257);
    for (std::uint64_t &h : items)
        h = rng();
    // Adversarial multiset: duplicates must not cancel (the trivial
    // XOR-fold failure mode the splitmix64 mixer exists to prevent).
    items.push_back(items[0]);
    items.push_back(items[0]);

    const std::uint64_t canonical = foldDigests(items);
    std::vector<std::uint64_t> perm = items;
    std::reverse(perm.begin(), perm.end());
    EXPECT_EQ(canonical, foldDigests(perm)) << "reverse order";
    for (int round = 0; round < 8; ++round) {
        std::shuffle(perm.begin(), perm.end(), rng);
        EXPECT_EQ(canonical, foldDigests(perm))
            << "shuffle round " << round;
    }

    // Shard associativity: merging per-shard partial folds must equal
    // the flat fold, whatever the split point — exactly the
    // work-stealing completion-order scenario.
    for (std::size_t split : {std::size_t{1}, items.size() / 3,
                              items.size() / 2, items.size() - 1}) {
        std::vector<std::uint64_t> a(items.begin(),
                                     items.begin() + split);
        std::vector<std::uint64_t> b(items.begin() + split,
                                     items.end());
        EXPECT_EQ(canonical, foldDigests(a) + foldDigests(b))
            << "shard split at " << split;
    }

    // Duplicates must change the digest (x + x != 0 under the mixer).
    std::vector<std::uint64_t> doubled = items;
    doubled.push_back(items[1]);
    EXPECT_NE(canonical, foldDigests(doubled));
}

void
propertyGlobalCountersAdd()
{
    auto &gc = tlsim::stats::GlobalCounters::instance();
    std::mt19937_64 rng(0xc0ffeeu);
    // A multiset of (name, delta) increments, as several shards would
    // emit them concurrently.
    std::vector<std::pair<std::string, std::uint64_t>> ops;
    const char *names[] = {"det.a", "det.b", "det.c", "det.d"};
    for (int i = 0; i < 200; ++i)
        ops.emplace_back(names[rng() % 4], rng() % 1000);

    auto run = [&](const std::vector<std::pair<std::string,
                                               std::uint64_t>> &seq) {
        gc.reset();
        for (const auto &[name, delta] : seq)
            gc.add(name, delta);
        return gc.snapshot();
    };

    const auto canonical = run(ops);
    auto perm = ops;
    std::reverse(perm.begin(), perm.end());
    EXPECT_EQ(canonical, run(perm)) << "reverse order";
    for (int round = 0; round < 4; ++round) {
        std::shuffle(perm.begin(), perm.end(), rng);
        EXPECT_EQ(canonical, run(perm)) << "shuffle round " << round;
    }
    gc.reset();
}

const std::map<std::string, std::function<void()>> &
registry()
{
    static const std::map<std::string, std::function<void()>> reg = {
        {"combineUnordered", propertyCombineUnordered},
        {"GlobalCounters::add", propertyGlobalCountersAdd},
    };
    return reg;
}

TEST(MergePermutation, EveryManifestEntryHasAProperty)
{
    const auto quals = loadManifest(TLSIM_DETMERGERS);
    ASSERT_FALSE(quals.empty());
    for (const std::string &qual : quals)
        EXPECT_TRUE(registry().count(qual))
            << "tools/detmergers.txt declares `" << qual
            << "` commutative but no permutation property is "
               "registered here";
}

TEST(MergePermutation, ManifestPropertiesHold)
{
    for (const std::string &qual : loadManifest(TLSIM_DETMERGERS)) {
        auto it = registry().find(qual);
        if (it == registry().end())
            continue; // reported by EveryManifestEntryHasAProperty
        SCOPED_TRACE(qual);
        it->second();
    }
}

} // namespace
