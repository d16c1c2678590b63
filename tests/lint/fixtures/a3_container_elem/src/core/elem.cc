// A3 container-element fixture: the hot root reaches each allocating
// callee only through an element of a declared container — a member
// vector subscript (`cores_[i].drain()`), a member array accessor
// (`tables_.at(i).record()`) and a local vector's `back()`. Decoy
// classes define the same method names, so neither a unique name nor
// a spelling hint can attribute the edges; only the element type can.

class Core
{
  public:
    void drain();

  private:
    Entry *buf_ = nullptr;
};

class Table
{
  public:
    void record();

  private:
    Entry *rows_ = nullptr;
};

class Log
{
  public:
    void drain() {}
    void record() {}
    void flush() {}
};

class Sink
{
  public:
    void flush();

  private:
    Entry *out_ = nullptr;
};

class Machine
{
  public:
    TLSIM_HOT void step(unsigned i);

  private:
    std::vector<Core> cores_;
    std::array<Table, 4> tables_;
};

TLSIM_HOT void
Machine::step(unsigned i)
{
    cores_[i].drain();
    tables_.at(i).record();
    std::vector<Sink> sinks(2);
    sinks.back().flush();
}

void
Core::drain()
{
    buf_ = new Entry[kBatch];
}

void
Table::record()
{
    rows_ = new Entry[kBatch];
}

void
Sink::flush()
{
    out_ = new Entry[kBatch];
}
