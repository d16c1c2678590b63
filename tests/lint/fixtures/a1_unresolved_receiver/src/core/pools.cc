// A1 fixture: `pool` is an `auto` reference and `lookup()` returns a
// type the model cannot see. The spelling `pool` resembles the Pool
// class and `grab` names one method in the tree, but neither says
// what the receiver is: both calls bind to nothing, draw no
// lock-order edge, and count as unresolved.

void
Registry::refresh()
{
    MutexLock reg(mtx_);
    auto &pool = lookup();
    pool.grab();
    lookup().grab();
}

void
Pool::grab()
{
    MutexLock guard(mtx_);
}
