#include "report/exporter.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace nnr::report {
namespace {

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("report::Exporter: cannot open " + path.string());
  }
  out << body;
  if (!out) {
    throw std::runtime_error("report::Exporter: write failed for " +
                             path.string());
  }
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_markdown(const core::TextTable& table) {
  std::string out;
  auto emit = [&out](const std::vector<std::string>& cells) {
    out += "|";
    for (const std::string& c : cells) {
      out += " " + c + " |";
    }
    out += "\n";
  };
  emit(table.headers());
  out += "|";
  for (std::size_t c = 0; c < table.headers().size(); ++c) out += "---|";
  out += "\n";
  for (const auto& row : table.rows()) emit(row);
  return out;
}

std::string render_json(const core::TextTable& table) {
  std::string out = "{\n  \"headers\": [";
  const auto& headers = table.headers();
  for (std::size_t c = 0; c < headers.size(); ++c) {
    if (c > 0) out += ", ";
    out += '"';
    out += json_escape(headers[c]);
    out += '"';
  }
  out += "],\n  \"rows\": [\n";
  const auto& rows = table.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += "    {";
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ", ";
      out += '"';
      out += json_escape(headers[c]);
      out += "\": \"";
      out += json_escape(rows[r][c]);
      out += '"';
    }
    out += r + 1 < rows.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

Exporter::Exporter(std::string out_dir) : out_dir_(std::move(out_dir)) {}

Exporter Exporter::from_env() {
  const char* dir = std::getenv("NNR_OUT_DIR");
  return Exporter(dir != nullptr ? dir : "");
}

std::string Exporter::sanitize_slug(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const char lower =
        static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const bool safe = (lower >= 'a' && lower <= 'z') ||
                      (lower >= '0' && lower <= '9') || lower == '.' ||
                      lower == '_' || lower == '-';
    out += safe ? lower : '_';
  }
  return out;
}

bool Exporter::write(const core::TextTable& table,
                     const std::string& experiment, const std::string& slug,
                     const std::string& title) {
  if (!enabled()) return false;
  const std::filesystem::path dir(out_dir_);
  std::filesystem::create_directories(dir);
  const std::string clean_experiment = sanitize_slug(experiment);
  const std::string clean_slug = sanitize_slug(slug);
  const std::string stem = clean_experiment + "_" + clean_slug;
  write_file(dir / (stem + ".txt"), table.render(title));
  write_file(dir / (stem + ".csv"), table.render_csv());
  write_file(dir / (stem + ".json"), render_json(table));
  artifacts_.push_back({clean_experiment, clean_slug, title});
  flush_index();
  return true;
}

void Exporter::flush_index() {
  if (!enabled()) return;
  const std::filesystem::path index_path =
      std::filesystem::path(out_dir_) / "index.json";

  // Merge with entries already on disk (written by other processes — each
  // bench binary is its own Exporter) so a sweep accumulates one manifest.
  // Lines are self-contained objects, so line-level parsing suffices for
  // the format this function itself writes.
  std::vector<std::string> lines;
  {
    std::ifstream in(index_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"experiment\"") == std::string::npos) continue;
      bool superseded = false;
      for (const Artifact& a : artifacts_) {
        const std::string key = "\"experiment\": \"" +
                                json_escape(a.experiment) +
                                "\", \"slug\": \"" + json_escape(a.slug) +
                                "\"";
        if (line.find(key) != std::string::npos) {
          superseded = true;
          break;
        }
      }
      if (!superseded) lines.push_back(line);
    }
  }
  for (const Artifact& a : artifacts_) {
    lines.push_back("  {\"experiment\": \"" + json_escape(a.experiment) +
                    "\", \"slug\": \"" + json_escape(a.slug) +
                    "\", \"title\": \"" + json_escape(a.title) + "\"}");
  }

  std::string body = "[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    // Normalize trailing commas: every line but the last gets one.
    while (!line.empty() && (line.back() == ',' || line.back() == ' ')) {
      line.pop_back();
    }
    body += line + (i + 1 < lines.size() ? ",\n" : "\n");
  }
  body += "]\n";
  write_file(index_path, body);
}

}  // namespace nnr::report
