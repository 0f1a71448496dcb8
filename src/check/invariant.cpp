#include "check/invariant.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace gc::check {

namespace {

void default_handler(const char* file, int line, const std::string& what) {
  std::fprintf(stderr, "INVARIANT VIOLATION %s:%d: %s\n", file, line,
               what.c_str());
  std::fflush(stderr);
  std::abort();
}

std::atomic<FailureHandler> g_handler{&default_handler};
std::atomic<std::uint64_t> g_failures{0};

}  // namespace

void set_failure_handler(FailureHandler handler) {
  g_handler.store(handler != nullptr ? handler : &default_handler);
}

void fail(const char* file, int line, const std::string& what) {
  g_failures.fetch_add(1);
  const FailureHandler handler = g_handler.load();
  handler(file, line, what);
}

std::uint64_t failure_count() { return g_failures.load(); }

void reset_failure_count() { g_failures.store(0); }

void UniqueIds::add(std::uint64_t id, const char* file, int line) {
  if (!live_.insert(id).second) {
    fail(file, line, what_ + ": duplicate live id " + std::to_string(id));
  }
}

void StoreAudit::add(const std::string& id, std::int64_t bytes,
                     const char* file, int line) {
  auto [it, inserted] = sizes_.emplace(id, bytes);
  if (!inserted) {
    fail(file, line, what_ + ": duplicate store of \"" + id + "\"");
    return;
  }
  total_ += bytes;
}

void StoreAudit::remove(const std::string& id, std::int64_t bytes,
                        const char* file, int line) {
  auto it = sizes_.find(id);
  if (it == sizes_.end()) {
    fail(file, line, what_ + ": removing unknown id \"" + id + "\"");
    return;
  }
  if (it->second != bytes) {
    fail(file, line,
         what_ + ": \"" + id + "\" removed with " + std::to_string(bytes) +
             " bytes but stored with " + std::to_string(it->second));
  }
  total_ -= it->second;
  sizes_.erase(it);
}

void StoreAudit::expect(std::size_t count, std::int64_t total_bytes,
                        const char* file, int line) const {
  if (count != sizes_.size() || total_bytes != total_) {
    fail(file, line,
         what_ + ": store reports " + std::to_string(count) + " entries / " +
             std::to_string(total_bytes) + " bytes but the audit tracked " +
             std::to_string(sizes_.size()) + " / " + std::to_string(total_));
  }
}

void StoreAudit::reset() {
  sizes_.clear();
  total_ = 0;
}

}  // namespace gc::check
