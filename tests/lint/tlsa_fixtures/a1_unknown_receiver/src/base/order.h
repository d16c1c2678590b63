// A1 unknown-receiver fixture: a generic helper calls size() on a
// parameter whose type is a template parameter. Only ResultMemo
// defines a project method named size(), and "m" is a substring of
// "resultmemo" — neither makes `m` a ResultMemo.

template <typename Map>
std::size_t
countEntries(const Map &m)
{
    return m.size();
}
