#include "spans.h"

#include <cstdio>

namespace p3q::perfbench {

int SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[id].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfTimeByLayer() const {
  // Children nest strictly inside their parent (spans open and close in
  // stack order), so a parent's covered time is the sum of its children's
  // durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_time[span.parent] += span.end - span.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += span.end - span.start - child_time[i];
  }
  return self;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, span.name.c_str(), span.parent, span.start, span.end,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace p3q::perfbench
