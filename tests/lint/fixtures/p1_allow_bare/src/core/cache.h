// Suppression fixture (bare allow): an allow with no reason is a
// hard error, and the violation it tried to hide still fires.

#include <cstdint>
#include <vector>

namespace t {

class Cache
{
  public:
    bool
    has(unsigned i) const
    {
        // tlsa:allow(P1)
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
