// D3 fixture (seeded float-order nondeterminism): a double
// accumulated inside an executor task sums in completion order, and
// float addition does not associate.

double total = 0.0;

void
Report::write()
{
    // tlsa:commutative(hits): fixture: integer add is commutative
    parallelFor(0, n, [&](int i) {
        total += slice(i);
        hits += 1;
        slots[i] += slice(i); // per-index slot: no diagnostic
        std::uint64_t h = 0;
        h += slice(i); // task-local accumulator: no diagnostic
    });
    emit(total);
}
