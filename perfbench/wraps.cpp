/**
 * @file
 * Link-time trampolines (ld --wrap, see CMakeLists.txt) around the
 * layer entry points the traced run times. Each __wrap_X records a
 * span and calls __real_X, the original definition. They are linked
 * into every run; with recording off the only cost is a branch in
 * SpanLog::open. None of them allocates (see spans.h).
 *
 * The TpccDb::load and runTransaction calls sit inside
 * tpcc::captureBenchmark in the same object file, where --wrap cannot
 * reach, so they are timed between neighbouring cross-object calls:
 *  - tpcc.load: from captureBenchmark entry to the first
 *    Tracer::txnBegin (or its return, with no transactions). It also
 *    covers constructing the Tracer and the empty TpccDb, which is
 *    microseconds against a load of over half a second.
 *  - tpcc.txn: from Tracer::txnBegin entry to Tracer::txnEnd exit,
 *    i.e. one runTransaction with its tracing.
 */

#include <sys/stat.h>

#include <memory>
#include <string>

#include "core/machine.h"
#include "core/trace.h"
#include "core/traceindex.h"
#include "core/tracer.h"
#include "perfbench/spans.h"
#include "tpcc/tpcc.h"

using namespace tlsim;
using perfbench::SpanLog;

namespace {

int loadSpan = -1;
int txnSpan = -1;

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

void
endLoad()
{
    if (loadSpan >= 0) {
        SpanLog::close(loadSpan);
        loadSpan = -1;
    }
}

} // namespace

extern "C" {

// tpcc::captureBenchmark(TxnType, const CaptureOptions &)
WorkloadTrace
__real__ZN5tlsim4tpcc16captureBenchmarkENS0_7TxnTypeERKNS0_14CaptureOptionsE(
    tpcc::TxnType type, const tpcc::CaptureOptions &opts);
WorkloadTrace
__wrap__ZN5tlsim4tpcc16captureBenchmarkENS0_7TxnTypeERKNS0_14CaptureOptionsE(
    tpcc::TxnType type, const tpcc::CaptureOptions &opts)
{
    const int span = SpanLog::open("tpcc.captureBenchmark");
    loadSpan = SpanLog::open("tpcc.load");
    WorkloadTrace w =
        __real__ZN5tlsim4tpcc16captureBenchmarkENS0_7TxnTypeERKNS0_14CaptureOptionsE(
            type, opts);
    endLoad();
    SpanLog::close(span, opts.txns, opts.tlsBuild ? 1 : 0);
    return w;
}

// Tracer::txnBegin()
void __real__ZN5tlsim6Tracer8txnBeginEv(Tracer *self);
void
__wrap__ZN5tlsim6Tracer8txnBeginEv(Tracer *self)
{
    endLoad();
    txnSpan = SpanLog::open("tpcc.txn");
    __real__ZN5tlsim6Tracer8txnBeginEv(self);
}

// Tracer::txnEnd()
void __real__ZN5tlsim6Tracer6txnEndEv(Tracer *self);
void
__wrap__ZN5tlsim6Tracer6txnEndEv(Tracer *self)
{
    __real__ZN5tlsim6Tracer6txnEndEv(self);
    SpanLog::close(txnSpan);
    txnSpan = -1;
}

// sim::saveTraceFile(const std::string &, const WorkloadTrace &)
void
__real__ZN5tlsim3sim13saveTraceFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_13WorkloadTraceE(
    const std::string &path, const WorkloadTrace &w);
void
__wrap__ZN5tlsim3sim13saveTraceFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_13WorkloadTraceE(
    const std::string &path, const WorkloadTrace &w)
{
    const int span = SpanLog::open("sim.traceio.write");
    __real__ZN5tlsim3sim13saveTraceFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_13WorkloadTraceE(
        path, w);
    SpanLog::close(span, span >= 0 ? fileBytes(path) : 0);
}

// sim::loadTraceFile(const std::string &, WorkloadTrace *)
bool
__real__ZN5tlsim3sim13loadTraceFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_13WorkloadTraceE(
    const std::string &path, WorkloadTrace *out);
bool
__wrap__ZN5tlsim3sim13loadTraceFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_13WorkloadTraceE(
    const std::string &path, WorkloadTrace *out)
{
    const int span = SpanLog::open("sim.traceio.read");
    const bool ok =
        __real__ZN5tlsim3sim13loadTraceFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_13WorkloadTraceE(
            path, out);
    SpanLog::close(span, span >= 0 ? fileBytes(path) : 0);
    return ok;
}

// TraceIndex::TraceIndex(const WorkloadTrace &, unsigned)
void __real__ZN5tlsim10TraceIndexC1ERKNS_13WorkloadTraceEj(
    TraceIndex *self, const WorkloadTrace &w, unsigned line_bytes);
void
__wrap__ZN5tlsim10TraceIndexC1ERKNS_13WorkloadTraceEj(
    TraceIndex *self, const WorkloadTrace &w, unsigned line_bytes)
{
    const int span = SpanLog::open("core.traceindex.build");
    __real__ZN5tlsim10TraceIndexC1ERKNS_13WorkloadTraceEj(self, w,
                                                          line_bytes);
    SpanLog::close(span);
}

// TraceIndex::loadFile(const std::string &, const WorkloadTrace &,
//                      unsigned)
std::unique_ptr<TraceIndex>
__real__ZN5tlsim10TraceIndex8loadFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_13WorkloadTraceEj(
    const std::string &path, const WorkloadTrace &w, unsigned line_bytes);
std::unique_ptr<TraceIndex>
__wrap__ZN5tlsim10TraceIndex8loadFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_13WorkloadTraceEj(
    const std::string &path, const WorkloadTrace &w, unsigned line_bytes)
{
    const int span = SpanLog::open("core.traceindex.read");
    std::unique_ptr<TraceIndex> idx =
        __real__ZN5tlsim10TraceIndex8loadFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_13WorkloadTraceEj(
            path, w, line_bytes);
    SpanLog::close(span, span >= 0 ? fileBytes(path) : 0);
    return idx;
}

// TraceIndex::saveFile(const std::string &) const
void
__real__ZNK5tlsim10TraceIndex8saveFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const TraceIndex *self, const std::string &path);
void
__wrap__ZNK5tlsim10TraceIndex8saveFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const TraceIndex *self, const std::string &path)
{
    const int span = SpanLog::open("core.traceindex.write");
    __real__ZNK5tlsim10TraceIndex8saveFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
        self, path);
    SpanLog::close(span, span >= 0 ? fileBytes(path) : 0);
}

// TlsMachine::run(const WorkloadTrace &, ExecMode, unsigned,
//                 const TraceIndex *)
RunResult
__real__ZN5tlsim10TlsMachine3runERKNS_13WorkloadTraceENS_8ExecModeEjPKNS_10TraceIndexE(
    TlsMachine *self, const WorkloadTrace &w, ExecMode mode,
    unsigned warmup, const TraceIndex *index);
RunResult
__wrap__ZN5tlsim10TlsMachine3runERKNS_13WorkloadTraceENS_8ExecModeEjPKNS_10TraceIndexE(
    TlsMachine *self, const WorkloadTrace &w, ExecMode mode,
    unsigned warmup, const TraceIndex *index)
{
    const int span = SpanLog::open("core.machine.run");
    RunResult r =
        __real__ZN5tlsim10TlsMachine3runERKNS_13WorkloadTraceENS_8ExecModeEjPKNS_10TraceIndexE(
            self, w, mode, warmup, index);
    SpanLog::close(span, r.recordsReplayed,
                   static_cast<std::uint64_t>(mode));
    return r;
}

} // extern "C"
