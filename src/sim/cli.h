/**
 * @file
 * The strict `--flag[=value]` command line of the bench binaries
 * (bench/benchutil.h), tlsim and tlscheck. Each declares its flags;
 * --help prints the generated usage and exits 0. An unknown flag, a
 * switch given a value, a value flag without one, a malformed number
 * or a value outside a flag's choices prints a message and the usage
 * to stderr and exits 2, so a misspelled flag never silently runs the
 * default.
 */

#ifndef SIM_CLI_H
#define SIM_CLI_H

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "tpcc/tpcc.h"

namespace tlsim {
namespace cli {

struct Flag
{
    enum Kind { Switch, Text, Number };
    const char *name; ///< without the leading "--"
    Kind kind;
    const char *help; ///< its line of the usage text
};

/** argv[first..] parsed against the declared flags. */
class Args
{
  public:
    Args(std::string prog, std::vector<Flag> flags, int argc,
         char **argv, int first)
        : prog_(std::move(prog)), flags_(std::move(flags))
    {
        for (int i = first; i < argc; ++i) {
            const std::string s = argv[i];
            if (s == "--help" || s == "-h") {
                usage(stdout);
                std::exit(0);
            }
            const std::size_t eq = s.find('=');
            const std::string name = s.substr(0, eq);
            auto f = std::find_if(
                flags_.begin(), flags_.end(),
                [&](const Flag &d) { return name == "--" + key(d); });
            if (f == flags_.end())
                fail("unknown argument '" + s + "'");
            if ((f->kind == Flag::Switch) != (eq == std::string::npos))
                fail(name + (f->kind == Flag::Switch ? " takes no value"
                                                     : " needs a value"));
            const std::string val = eq == s.npos ? "" : s.substr(eq + 1);
            std::uint64_t n = 0;
            const char *end = val.data() + val.size();
            const auto [ptr, ec] = std::from_chars(val.data(), end, n);
            if (f->kind == Flag::Number &&
                (val.empty() || ptr != end || ec != std::errc()))
                fail("bad value for " + s);
            kv_[key(*f)] = val;
        }
    }

    bool has(const std::string &k) const { return kv_.count(k) > 0; }

    std::string
    str(const std::string &k, const std::string &dflt = "") const
    {
        return has(k) ? kv_.at(k) : dflt;
    }

    /** A Number flag's value (well-formed once parsed), or `dflt`. */
    std::uint64_t
    num(const std::string &k, std::uint64_t dflt) const
    {
        return has(k) ? std::stoull(kv_.at(k)) : dflt;
    }

    /** num() of a flag that must fit an unsigned. */
    unsigned
    u32(const std::string &k, unsigned dflt) const
    {
        if (num(k, dflt) > 0xFFFFFFFFu)
            fail("bad value for --" + k + "=" + str(k));
        return static_cast<unsigned>(num(k, dflt));
    }

    /** A Text flag that must be one of `choices` (default: the first). */
    std::string
    oneOf(const std::string &k,
          const std::vector<std::string> &choices) const
    {
        const std::string v = str(k, choices.front());
        if (std::find(choices.begin(), choices.end(), v) == choices.end())
            fail("bad value for --" + k + "=" + v);
        return v;
    }

    /** The benchmark flag `k` names, spelled like NEW_ORDER_150. */
    tpcc::TxnType
    benchmark(const std::string &k) const
    {
        std::string known;
        for (tpcc::TxnType t : tpcc::allBenchmarks()) {
            std::string n = tpcc::txnTypeName(t);
            std::replace(n.begin(), n.end(), ' ', '_');
            if (n == str(k))
                return t;
            known += " " + n;
        }
        fail("unknown benchmark '" + str(k) + "' (known:" + known + ")");
    }

    /** Print `msg` and the usage to stderr; exit 2. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        std::fprintf(stderr, "%s: %s\n", prog_.c_str(), msg.c_str());
        usage(stderr);
        std::exit(2);
    }

  private:
    static std::string key(const Flag &f) { return f.name; }

    void
    usage(std::FILE *out) const
    {
        std::fprintf(out, "usage: %s [options]\n", prog_.c_str());
        for (const Flag &f : flags_) {
            const char *arg[] = {"", "=VALUE", "=N"};
            const std::string spell = "--" + key(f) + arg[f.kind];
            std::fprintf(out, "  %-22s %s\n", spell.c_str(), f.help);
        }
    }

    std::string prog_;
    std::vector<Flag> flags_;
    std::map<std::string, std::string> kv_;
};

} // namespace cli
} // namespace tlsim

#endif // SIM_CLI_H
