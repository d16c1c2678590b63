// Suppression fixture (reasoned allow): the P1 valid-only read is
// acknowledged with a reason, so the tool is quiet and the census
// counts one reasoned suppression.

#include <cstdint>
#include <vector>

namespace t {

class Cache
{
  public:
    bool
    has(unsigned i) const
    {
        // tlsa:allow(P1): probe runs before the first reset by construction
        return slots_[i].valid;
    }

  private:
    struct Slot
    {
        bool valid = false;
        std::uint32_t gen = 0;
    };

    std::vector<Slot> slots_;
    std::uint32_t gen_ = 1;
};

} // namespace t
