// Declarations: Registry's member `pool_` is declared a Pool, which is
// what binds `pool_.grab()` to Pool::grab (a receiver of unknown type
// would bind to nothing).

class Pool
{
  public:
    void grab();

  private:
    Mutex mtx_;
    int grabs_ = 0;
};

class Registry
{
  public:
    void refresh();

  private:
    Mutex mtx_;
    Pool pool_;
};
