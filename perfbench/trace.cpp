#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <set>

namespace perfbench {

namespace {
thread_local std::uint32_t t_current = 0;  // innermost open span on this thread
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::close(std::uint32_t id, const char* name, int tid, std::uint64_t job,
                   Clock::time_point start, Clock::time_point end, std::uint32_t parent) {
  const double dur = seconds_between(start, end);
  std::lock_guard<std::mutex> lock(mutex_);
  if (parent == 0) top_level_[tid] += dur;
  if (records_.size() < kMaxRecorded) {
    records_.push_back(Record{name, tid, job, id, parent,
                              seconds_between(origin_, start) * 1e6, dur * 1e6});
  } else {
    ++dropped_;
  }
}

double Tracer::top_level_seconds(int tid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = top_level_.find(tid);
  return it == top_level_.end() ? 0.0 : it->second;
}

std::size_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Chrome trace-event format: one complete ("X") event per span; the
  // main thread is tid 100, ranks keep their rank number.
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::fputs("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":100,"
             "\"args\":{\"name\":\"main\"}}",
             f);
  std::set<int> ranks;
  for (const auto& rec : records_) {
    if (rec.tid >= 0) ranks.insert(rec.tid);
  }
  for (const int r : ranks) {
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                 "\"args\":{\"name\":\"rank %d\"}}",
                 r, r);
  }
  for (const auto& rec : records_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,\"job\":%llu}}",
                 rec.name, static_cast<int>(std::strcspn(rec.name, ".")), rec.name,
                 rec.tid < 0 ? 100 : rec.tid, rec.start_us, rec.dur_us, rec.id, rec.parent,
                 static_cast<unsigned long long>(rec.job));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name, int tid, std::uint64_t job)
    : name_(name), tid_(tid), job_(job) {
  Tracer& t = Tracer::instance();
  if (!t.active()) return;
  parent_ = t_current;
  id_ = t.open();
  t_current = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const auto end = Clock::now();
  Tracer::instance().close(id_, name_, tid_, job_, start_, end, parent_);
  t_current = parent_;
}

}  // namespace perfbench
