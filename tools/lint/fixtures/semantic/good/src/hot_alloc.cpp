// sem-hot-alloc fixture, clean counterpart: the hot path writes into a
// pre-sized member scratch buffer. Growth calls on members are not this
// rule's business — steady-state appends into kept capacity are the
// repo's documented pattern.
#include <array>

namespace fix {

class Engine {
 public:
  int Send(int packet);

 private:
  int Step(int value);
  int Classify(int value);

  std::array<int, 8> scratch_{};
};

int Engine::Send(int packet) { return Step(packet); }

int Engine::Step(int value) { return Classify(value + 1); }

int Engine::Classify(int value) {
  scratch_[0] = value;  // caller-owned storage, no allocation
  return scratch_[0];
}

}  // namespace fix
