#include "telemetry/span_tracer.h"

#include <cstdio>
#include <stdexcept>

#include "telemetry/json_writer.h"

namespace prism::telemetry {

SpanTracer::SpanTracer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SpanTracer: capacity must be positive");
  }
}

SpanTracer::NameId SpanTracer::intern(std::string_view name,
                                      std::string_view arg_name,
                                      std::string_view arg2_name) {
  auto it = name_index_.find(std::string(name));
  if (it == name_index_.end()) {
    if (names_.size() > 0xffff) {
      throw std::length_error("SpanTracer: name table full");
    }
    const NameId id = static_cast<NameId>(names_.size());
    names_.push_back(Name{std::string(name)});
    it = name_index_.emplace(names_.back().name, id).first;
  }
  Name& n = names_[it->second];
  if (!arg_name.empty()) {
    n.arg = arg_name;
    n.arg_named = true;
  }
  if (!arg2_name.empty()) {
    n.arg2 = arg2_name;
    n.arg2_named = true;
  }
  return it->second;
}

std::vector<SpanTracer::PollRow> SpanTracer::polls(int track,
                                                   sim::Time from) const {
  std::vector<PollRow> out;
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& s = at(i);
    if (s.kind != Kind::kPoll || s.track != track || s.begin < from) {
      continue;
    }
    PollRow r;
    r.iteration = out.size() + 1;
    r.at = s.begin;
    r.device = name(s.name);
    r.packets = static_cast<std::uint64_t>(s.arg);
    for (std::size_t j = 0; j < s.poll_list.size; ++j) {
      r.poll_list.push_back(name(s.poll_list.ids[j]));
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string SpanTracer::export_chrome_trace(
    std::string_view process_name) const {
  JsonWriter w;
  w.begin_object();
  // Ring accounting up front so a consumer can tell whether the timeline
  // is complete: dropped > 0 means the oldest spans were overwritten.
  w.key("traceStats")
      .begin_object()
      .member("recorded", recorded_)
      .member("retained", static_cast<std::uint64_t>(size()))
      .member("dropped", dropped_)
      .end_object();
  w.key("traceEvents").begin_array();

  // Metadata: process name, one thread row per labelled track.
  w.begin_object()
      .member("ph", "M")
      .member("pid", 0)
      .member("tid", 0)
      .member("name", "process_name")
      .key("args")
      .begin_object()
      .member("name", process_name)
      .end_object()
      .end_object();
  for (const auto& [track, label] : track_labels_) {
    w.begin_object()
        .member("ph", "M")
        .member("pid", 0)
        .member("tid", track)
        .member("name", "thread_name")
        .key("args")
        .begin_object()
        .member("name", label)
        .end_object()
        .end_object();
  }

  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = at(i);
    w.begin_object();
    w.member("pid", 0).member("tid", static_cast<int>(s.track));
    w.member("name", name(s.name));
    w.member("ts", static_cast<double>(s.begin) / 1e3);
    if (s.kind == Kind::kInstant) {
      w.member("ph", "i").member("s", "t");
    } else {
      w.member("ph", "X");
      w.member("dur", static_cast<double>(s.duration) / 1e3);
      // A named arg exports even at 0 (class 0 is a class); an unnamed
      // one only when it is set.
      const Name& n = names_[s.name];
      const bool arg = n.arg_named || s.arg != 0;
      const bool arg2 = n.arg2_named || s.arg2 != 0;
      if (arg || arg2 || s.kind == Kind::kPoll) {
        w.key("args").begin_object();
        if (arg) w.member(n.arg, s.arg);
        if (arg2) w.member(n.arg2, s.arg2);
        if (s.kind == Kind::kPoll) {
          w.key("poll_list").begin_array();
          for (std::size_t j = 0; j < s.poll_list.size; ++j) {
            w.value(name(s.poll_list.ids[j]));
          }
          w.end_array();
        }
        w.end_object();
      }
    }
    w.end_object();
  }

  w.end_array();
  w.member("displayTimeUnit", "ns");
  w.end_object();
  return w.take();
}

bool SpanTracer::export_chrome_trace_file(
    const std::string& path, std::string_view process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = export_chrome_trace(process_name);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

std::string render_poll_table(const std::vector<SpanTracer::PollRow>& rows,
                              std::size_t max_rows) {
  std::string out = "Iter.  Device  Poll list\n";
  char buf[32];
  for (std::size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    const SpanTracer::PollRow& r = rows[i];
    std::snprintf(buf, sizeof(buf), "%-5llu  %-6s  [",
                  static_cast<unsigned long long>(r.iteration),
                  r.device.c_str());
    out += buf;
    for (std::size_t j = 0; j < r.poll_list.size(); ++j) {
      if (j != 0) out += ", ";
      out += r.poll_list[j];
    }
    out += "]\n";
  }
  return out;
}

}  // namespace prism::telemetry
