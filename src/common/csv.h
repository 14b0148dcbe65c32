#ifndef REMEDY_COMMON_CSV_H_
#define REMEDY_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace remedy {

// Minimal CSV support for importing and exporting tabular datasets.
//
// Handles the common case used by fairness datasets: comma separation,
// optional double-quote quoting with "" escapes (quoted fields may span
// lines), LF or CRLF record terminators, an optional UTF-8 BOM before the
// header, and a trailing newline that does not produce a phantom row.
// Failures are reported as Status (kDataCorruption for malformed bytes,
// kIoError for file problems); nothing here aborts on bad input.

// One record the tolerant parser refused, with where and why — the raw
// material of the loader's quarantine report.
struct CsvBadRow {
  int line = 0;  // 1-based line the record started on
  std::string reason;
};

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  // Structurally malformed records diverted by `tolerate_bad_rows`; empty
  // in strict mode (the parse fails instead).
  std::vector<CsvBadRow> bad_rows;
};

struct CsvParseOptions {
  // When true the first record becomes `table.header` and defines the
  // expected field count.
  bool has_header = true;
  // Strict mode (false): the first malformed record fails the whole parse
  // with kDataCorruption. Tolerant mode (true): malformed records
  // (field-count mismatch, unterminated quote) are diverted to
  // CsvTable::bad_rows and parsing resynchronizes at the next line.
  bool tolerate_bad_rows = false;
};

// Parses CSV text.
StatusOr<CsvTable> ParseCsv(const std::string& text,
                            const CsvParseOptions& options = {});

struct CsvReadOptions {
  CsvParseOptions parse;
  // Bounded retry with doubling backoff for transient file I/O. A missing
  // file (ENOENT) is not transient and fails immediately; other open and
  // read failures are retried up to `max_attempts` total attempts.
  int max_attempts = 3;
  int initial_backoff_ms = 1;
};

// Reads and parses the file at `path`.
StatusOr<CsvTable> ReadCsvFile(const std::string& path,
                               const CsvReadOptions& options = {});

// Appends `field` to `out` as one CSV field: verbatim, or double-quoted
// with "" escapes when it contains a separator, quote or line break.
void AppendCsvField(const std::string& field, std::string* out);

// Serializes a table; fields are written by AppendCsvField.
std::string WriteCsv(const CsvTable& table);

// Writes the serialized table to `path`.
Status WriteCsvFile(const std::string& path, const CsvTable& table);

}  // namespace remedy

#endif  // REMEDY_COMMON_CSV_H_
