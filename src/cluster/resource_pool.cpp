#include "cluster/resource_pool.hpp"

#include <cassert>
#include <limits>

#include "util/strings.hpp"

namespace dc::cluster {

ResourcePool::ResourcePool(NodeCount capacity) : capacity_(capacity) {
  assert(capacity >= 0);
}

ResourcePool ResourcePool::unbounded() { return ResourcePool(); }

NodeCount ResourcePool::capacity() const {
  assert(capacity_.has_value() && "unbounded pool has no capacity");
  return *capacity_;
}

NodeCount ResourcePool::free() const {
  if (!capacity_) return std::numeric_limits<NodeCount>::max();
  return *capacity_ - allocated_;
}

bool ResourcePool::can_allocate(NodeCount count) const {
  assert(count >= 0);
  if (!capacity_) return true;
  return allocated_ + count <= *capacity_;
}

Status ResourcePool::allocate(NodeCount count) {
  assert(count >= 0);
  if (!can_allocate(count)) {
    return Status::resource_exhausted(
        str_format("requested %lld nodes, only %lld free",
                   static_cast<long long>(count), static_cast<long long>(free())));
  }
  allocated_ += count;
  return Status::ok();
}

void ResourcePool::release(NodeCount count) {
  assert(count >= 0);
  assert(count <= allocated_ && "releasing more nodes than allocated");
  allocated_ -= count;
}

template <class Io>
Status ResourcePool::persist(Io& io) {
  bool bounded = capacity_.has_value();
  NodeCount capacity = capacity_.value_or(-1);
  if (auto st = io.boolean("bounded", bounded); !st.is_ok()) return st;
  if (auto st = io.i64("capacity", capacity); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    if (bounded != capacity_.has_value() ||
        (bounded && capacity != *capacity_)) {
      return Status::failed_precondition(
          "resource pool: snapshot capacity " +
          (bounded ? std::to_string(capacity) : std::string("unbounded")) +
          " does not match the rebuilt pool — the snapshot belongs to a "
          "different experiment configuration");
    }
  }
  return io.i64("allocated", allocated_);
}

Status ResourcePool::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<ResourcePool&>(*this).persist(writer);
}

Status ResourcePool::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::cluster
