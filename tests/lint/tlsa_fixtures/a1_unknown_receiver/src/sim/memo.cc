// Two locking methods with names no other project class defines.

class ResultMemo
{
  public:
    std::size_t size() const;

  private:
    Mutex mtx_;
    std::size_t count_ = 0;
};

std::size_t
ResultMemo::size() const
{
    MutexLock lock(mtx_);
    return count_;
}

class Journal
{
  public:
    void drainAll();

  private:
    Mutex mtx_;
};

void
Journal::drainAll()
{
    MutexLock lock(mtx_);
}
