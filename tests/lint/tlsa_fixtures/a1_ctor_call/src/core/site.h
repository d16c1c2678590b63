// A1 constructor fixture: a site interns its name in the registry
// from its constructor's init list, under the registry's lock.

class Registry
{
  public:
    static Registry &instance();
    int intern(const char *name);

  private:
    Mutex mtx_;
};

struct Site
{
    explicit Site(const char *name)
        : pc(Registry::instance().intern(name))
    {
    }

    int pc;
};

int
Registry::intern(const char *name)
{
    MutexLock lock(mtx_);
    return 0;
}
