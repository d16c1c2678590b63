// A2 fixture: speculative-state mutation outside the audited mutator
// modules, by a distinctive mutator name and by a generic name on a
// spec/victim receiver. Expected: [A2] on lines 12 and 14.

#include <cstdint>

struct FakeState;

void
rogueMutations(FakeState &spec_state, FakeState &other, int line)
{
    spec_state.recordStore(0x1000, 8, 0); // distinct mutator name

    victim_cache.insert(line); // generic name + victim receiver

    other.insert(line); // generic name, neutral receiver: NOT flagged
    spec_state.query(line); // non-mutator method: NOT flagged
}
