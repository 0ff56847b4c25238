/**
 * @file
 * A FIFO queue over one vector, for queues on the simulator's event
 * path that drain often: push at the back, pop by advancing a head
 * index, and reuse the storage once the queue empties.  std::deque
 * allocates on construction and frees its nodes as it drains, so a
 * machine reused across runs would keep paying for both.
 */

#ifndef WO_COMMON_FIFO_HH
#define WO_COMMON_FIFO_HH

#include <cstddef>
#include <vector>

namespace wo {

template <typename T>
class Fifo
{
  public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }

    T &front() { return items_[head_]; }
    const T &front() const { return items_[head_]; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return items_[head_ + i]; }

    void push_back(const T &v) { items_.push_back(v); }

    void
    pop_front()
    {
        if (++head_ == items_.size()) {
            clear();
        } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
            // A queue that never fully drains still stays compact.
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    /** Drop every element; the storage is kept. */
    void
    clear()
    {
        items_.clear();
        head_ = 0;
    }

  private:
    std::vector<T> items_;
    std::size_t head_ = 0;
};

} // namespace wo

#endif // WO_COMMON_FIFO_HH
