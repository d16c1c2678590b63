// Under the stem lock: a std container handed to the generic helper,
// a local declared with a non-project type, and a call through a
// local of unknown type. None of them reaches ResultMemo::mtx_ or
// Journal::mtx_, so none may be reported.

void
TraceCache::lookup()
{
    MutexLock stem(StemLocks::instance().forStem(key_));
    countEntries(lines_);
    BytesView m = keyOf();
    consume(m.size());
    auto &rows = tables();
    rows.drainAll();
}

// A parameter declared as a project class does bind: this nesting is
// real and undeclared.
void
TraceCache::flush(Journal &log)
{
    MutexLock stem(StemLocks::instance().forStem(key_));
    log.drainAll();
}
