// Declarations: Driver's member `machine_` is declared a TlsMachine,
// which is what binds `machine_.step()` to TlsMachine::step.

class Driver
{
  public:
    void go();

  private:
    TlsMachine machine_;
};
