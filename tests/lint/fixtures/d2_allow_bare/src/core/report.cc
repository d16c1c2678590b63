// Suppression fixture: a bare allow (no reason) is itself an error,
// and the violation it meant to silence still fires.

void
Report::write()
{
    // tlsa:allow(D2)
    auto t = std::chrono::steady_clock::now();
    emit(stamp(t));
}
