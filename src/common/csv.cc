#include "common/csv.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/fault_injection.h"
#include "common/pipeline_metrics.h"

namespace remedy {
namespace {

constexpr char kUtf8Bom[] = "\xEF\xBB\xBF";

// Parses one logical CSV record starting at *pos; advances *pos past the
// record terminator and *line past the consumed newlines. Quoted fields may
// contain separators, quotes ("" escapes) and newlines. On a malformed
// record (unterminated quote) returns false with *reason set;
// *resync_pos/*resync_line then name the first line boundary inside the
// record, where a tolerant caller can resume parsing.
bool ParseRecord(const std::string& text, size_t* pos, int* line,
                 std::vector<std::string>* fields, std::string* reason,
                 size_t* resync_pos, int* resync_line) {
  fields->clear();
  std::string field;
  bool in_quotes = false;
  size_t i = *pos;
  const size_t n = text.size();
  int newlines = 0;
  *resync_pos = std::string::npos;
  auto note_line_boundary = [&](size_t after) {
    ++newlines;
    if (*resync_pos == std::string::npos) {
      *resync_pos = after;
      *resync_line = *line + newlines;
    }
  };
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        if (c == '\n') note_line_boundary(i + 1);
        field.push_back(c);
        ++i;
      }
    } else if (c == '"') {
      in_quotes = true;
      ++i;
    } else if (c == ',') {
      fields->push_back(std::move(field));
      field.clear();
      ++i;
    } else if (c == '\n' || c == '\r') {
      ++i;
      if (c == '\r' && i < n && text[i] == '\n') ++i;
      note_line_boundary(i);
      break;
    } else {
      field.push_back(c);
      ++i;
    }
  }
  *pos = i;
  *line += newlines;
  if (in_quotes) {
    *reason = "unterminated quoted field";
    return false;
  }
  fields->push_back(std::move(field));
  return true;
}

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

// One read attempt. *retryable distinguishes transient failures (worth a
// backed-off retry) from definitive ones like a missing file.
Status ReadFileOnce(const std::string& path, std::string* contents,
                    bool* retryable) {
  *retryable = true;
  REMEDY_FAULT_POINT("csv/read");
  errno = 0;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    *retryable = errno != ENOENT;
    return IoError("cannot open " + path + ": " + std::strerror(errno));
  }
  contents->clear();
  char buffer[1 << 16];
  size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents->append(buffer, read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return IoError("read of " + path + " failed");
  return OkStatus();
}

}  // namespace

StatusOr<CsvTable> ParseCsv(const std::string& text,
                            const CsvParseOptions& options) {
  CsvTable table;
  size_t pos = 0;
  if (text.compare(0, 3, kUtf8Bom, 3) == 0) pos = 3;  // BOM before header
  int line = 1;
  bool first = true;
  size_t expected_width = 0;
  while (pos < text.size()) {
    const int record_line = line;
    std::vector<std::string> fields;
    std::string reason;
    size_t resync_pos = std::string::npos;
    int resync_line = line;
    if (!ParseRecord(text, &pos, &line, &fields, &reason, &resync_pos,
                     &resync_line)) {
      if (!options.tolerate_bad_rows) {
        return DataCorruptionError("line " + std::to_string(record_line) +
                                   ": " + reason);
      }
      table.bad_rows.push_back({record_line, reason});
      // The malformed record consumed everything to EOF (unterminated
      // quote); give the lines after its first boundary a chance instead of
      // discarding the rest of the file with it.
      if (resync_pos == std::string::npos || resync_pos >= text.size()) break;
      pos = resync_pos;
      line = resync_line;
      continue;
    }
    // Skip blank lines (including the one a trailing newline implies).
    if (fields.size() == 1 && fields[0].empty()) continue;
    if (first) {
      expected_width = fields.size();
      first = false;
      if (options.has_header) {
        table.header = std::move(fields);
        continue;
      }
    }
    if (fields.size() != expected_width) {
      std::string mismatch = "has " + std::to_string(fields.size()) +
                             " fields, expected " +
                             std::to_string(expected_width);
      if (!options.tolerate_bad_rows) {
        return DataCorruptionError("line " + std::to_string(record_line) +
                                   ": " + mismatch);
      }
      table.bad_rows.push_back({record_line, std::move(mismatch)});
      continue;
    }
    table.rows.push_back(std::move(fields));
  }
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.csv_records->Increment(static_cast<int64_t>(table.rows.size()) +
                                 static_cast<int64_t>(table.bad_rows.size()));
  metrics.csv_bad_records->Increment(
      static_cast<int64_t>(table.bad_rows.size()));
  return table;
}

StatusOr<CsvTable> ReadCsvFile(const std::string& path,
                               const CsvReadOptions& options) {
  const int max_attempts = std::max(1, options.max_attempts);
  int backoff_ms = std::max(0, options.initial_backoff_ms);
  std::string contents;
  Status last = OkStatus();
  int attempts = 0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1 && backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    bool retryable = true;
    ++attempts;
    if (attempt > 1) PipelineMetrics::Get().csv_read_retries->Increment();
    last = ReadFileOnce(path, &contents, &retryable);
    if (last.ok()) {
      StatusOr<CsvTable> parsed = ParseCsv(contents, options.parse);
      if (!parsed.ok()) return parsed.status().WithContext(path);
      return parsed;
    }
    if (!retryable) break;
  }
  return last.WithContext("reading " + path + " failed after " +
                          std::to_string(attempts) + " attempt(s)");
}

void AppendCsvField(const std::string& field, std::string* out) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string WriteCsv(const CsvTable& table) {
  std::string out;
  auto write_record = [&out](const std::vector<std::string>& fields) {
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendCsvField(fields[i], &out);
    }
    out.push_back('\n');
  };
  if (!table.header.empty()) write_record(table.header);
  for (const auto& row : table.rows) write_record(row);
  return out;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table) {
  REMEDY_FAULT_POINT("csv/write");
  std::ofstream out(path, std::ios::binary);
  if (!out) return IoError("cannot open " + path + " for writing");
  out << WriteCsv(table);
  out.flush();
  if (!out) return IoError("write to " + path + " failed");
  return OkStatus();
}

}  // namespace remedy
