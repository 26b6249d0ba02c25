// Machine-readable export of bench tables.
//
// Every bench prints aligned text for humans; downstream plotting (the
// paper's figures are bar charts over exactly these tables) wants CSV or
// JSON. The Exporter writes each emitted table to an output directory in
// three formats — .txt (the aligned rendering), .csv, and .json — keyed by
// an experiment id and a table slug, plus an index.json describing every
// artifact written in the session. Export is opt-in: when the directory is
// empty (NNR_OUT_DIR unset) every call is a no-op, so benches can emit
// unconditionally.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/table.h"

namespace nnr::report {

/// JSON rendering: {"headers": [...], "rows": [{header: cell, ...}, ...]}.
/// Cells stay strings — benches pre-format numbers, and round-tripping the
/// formatted value is what plotting scripts want.
[[nodiscard]] std::string render_json(const core::TextTable& table);

/// Escapes a string for embedding in a JSON document (quotes, backslashes,
/// control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

class Exporter {
 public:
  /// Exporter writing under `out_dir`; an empty dir disables all writes.
  explicit Exporter(std::string out_dir);

  /// Exporter configured from the NNR_OUT_DIR environment variable.
  [[nodiscard]] static Exporter from_env();

  [[nodiscard]] bool enabled() const noexcept { return !out_dir_.empty(); }

  /// Writes `<experiment>_<slug>.{txt,csv,json}` under the output directory
  /// (created on demand) and records the artifact in index.json. Both name
  /// parts are passed through sanitize_slug, so callers can hand over raw
  /// display names ("RTX5000 TC"). `title` is embedded in the .txt rendering
  /// and the index. Returns false (silently) when disabled; throws
  /// std::runtime_error on I/O failure.
  bool write(const core::TextTable& table, const std::string& experiment,
             const std::string& slug, const std::string& title = "");

  /// Filename-safe slug: ASCII-lowercased, with every character outside
  /// [a-z0-9._-] (spaces included) mapped to '_'. Applied uniformly to all
  /// emitted artifact filenames.
  [[nodiscard]] static std::string sanitize_slug(std::string_view s);

  /// Artifacts written so far (one entry per write call).
  struct Artifact {
    std::string experiment;
    std::string slug;
    std::string title;
  };
  [[nodiscard]] const std::vector<Artifact>& artifacts() const noexcept {
    return artifacts_;
  }

  /// Rewrites index.json from the artifact list. Called by write(); public
  /// so tests can verify the format.
  void flush_index();

 private:
  std::string out_dir_;
  std::vector<Artifact> artifacts_;
};

}  // namespace nnr::report
