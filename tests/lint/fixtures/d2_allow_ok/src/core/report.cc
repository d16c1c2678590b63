// Suppression fixture: a reasoned tlsa:allow on the offending line
// keeps the tool quiet and shows up in the census instead.

void
Report::write()
{
    // tlsa:allow(D2): fixture: timestamp feeds the banner only
    auto t = std::chrono::steady_clock::now();
    emit(stamp(t));
}
