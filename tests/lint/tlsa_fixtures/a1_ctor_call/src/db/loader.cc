// Two undeclared nestings of the registry lock, each reached only
// through a constructor: a function-local static Site declared under
// the image lock, and Table::put (whose static Site interns) called on
// the Table& that Catalog::table returns, through an `auto` local made
// by std::make_unique. Journal::put keeps `put` from being unique.

void
Loader::openImage()
{
    MutexLock image(StemLocks::instance().forImage(path_));
    static const Site s_open("loader.open_image");
}

void
Table::put()
{
    static const Site s_put("table.put");
}

void
Journal::put()
{
}

Table &
Catalog::table(int id)
{
    return tables_[id];
}

void
Loader::load()
{
    MutexLock stem(StemLocks::instance().forStem(key_));
    auto cat = std::make_unique<Catalog>();
    cat->table(1).put();
}
