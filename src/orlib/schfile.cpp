#include "orlib/schfile.hpp"

#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cdd::orlib {
namespace {

/// sum(P_i) of a parsed table; rejects tables whose sum overflows Time.
Time TotalProcessingTime(const JobTable& jobs) {
  const std::optional<Time> total = CheckedProcessingSum(jobs);
  if (!total) {
    throw std::invalid_argument("sch: sum of processing times overflows");
  }
  return *total;
}

/// Line-oriented token reader that tracks line numbers (and optionally the
/// source file path) for diagnostics.
class TokenReader {
 public:
  TokenReader(std::istream& in, const std::string& file)
      : in_(in), file_(file) {}

  /// Next whitespace-separated integer token; throws SchParseError at EOF
  /// or on a non-numeric token.
  long long NextInt(const char* what) {
    std::string token;
    for (;;) {
      if (!(line_stream_ >> token)) {
        if (!std::getline(in_, line_)) {
          throw SchParseError(std::string("unexpected end of file, wanted ") +
                                  what,
                              line_no_, file_);
        }
        ++line_no_;
        line_stream_.clear();
        line_stream_.str(line_);
        continue;
      }
      break;
    }
    try {
      std::size_t pos = 0;
      const long long value = std::stoll(token, &pos);
      if (pos != token.size()) throw std::invalid_argument(token);
      return value;
    } catch (const std::exception&) {
      throw SchParseError("expected integer for " + std::string(what) +
                              ", got '" + token + "'",
                          line_no_, file_);
    }
  }

  /// True when nothing but whitespace remains in the input.
  bool AtEnd() {
    std::string token;
    for (;;) {
      if (line_stream_ >> token) {
        leftover_ = token;
        return false;
      }
      if (!std::getline(in_, line_)) return true;
      ++line_no_;
      line_stream_.clear();
      line_stream_.str(line_);
    }
  }

  std::size_t line() const { return line_no_; }
  const std::string& file() const { return file_; }
  const std::string& leftover() const { return leftover_; }

 private:
  std::istream& in_;
  std::string file_;
  std::string line_;
  std::string leftover_;
  std::istringstream line_stream_;
  std::size_t line_no_ = 0;
};

std::vector<JobTable> ParseFile(std::istream& in, int columns,
                                const std::string& file = "") {
  TokenReader reader(in, file);
  const long long count = reader.NextInt("instance count");
  if (count < 1 || count > 1'000'000) {
    throw SchParseError("implausible instance count " +
                            std::to_string(count),
                        reader.line(), file);
  }
  std::vector<JobTable> tables;
  tables.reserve(static_cast<std::size_t>(count));
  for (long long inst = 0; inst < count; ++inst) {
    const long long n = reader.NextInt("job count");
    if (n < 1 || n > 10'000'000) {
      throw SchParseError("implausible job count " + std::to_string(n),
                          reader.line(), file);
    }
    JobTable jobs(static_cast<std::size_t>(n));
    for (Job& j : jobs) {
      j.proc = reader.NextInt("processing time");
      if (columns == 5) {
        j.min_proc = reader.NextInt("minimum processing time");
      } else {
        j.min_proc = j.proc;
      }
      j.early = reader.NextInt("earliness penalty");
      j.tardy = reader.NextInt("tardiness penalty");
      j.compress = columns == 5 ? reader.NextInt("compression penalty") : 0;
      if (j.proc < 1) {
        throw SchParseError("processing time must be >= 1", reader.line(),
                            file);
      }
      if (j.min_proc < 0 || j.min_proc > j.proc) {
        throw SchParseError("minimum processing time outside [0, p]",
                            reader.line(), file);
      }
      if (j.early < 0 || j.tardy < 0 || j.compress < 0) {
        throw SchParseError("negative penalty", reader.line(), file);
      }
    }
    tables.push_back(std::move(jobs));
  }
  // A well-formed file ends after its declared instances; leftover tokens
  // almost always mean a wrong count or a concatenated/corrupted file.
  if (!reader.AtEnd()) {
    throw SchParseError("trailing data after the declared " +
                            std::to_string(count) + " instance(s): '" +
                            reader.leftover() + "'",
                        reader.line(), file);
  }
  return tables;
}

std::vector<JobTable> LoadFile(const std::string& path, int columns) {
  std::ifstream in(path);
  if (!in) {
    throw SchParseError("cannot open file", 0, path);
  }
  return ParseFile(in, columns, path);
}

}  // namespace

std::vector<JobTable> ParseCddFile(std::istream& in) {
  return ParseFile(in, 3);
}

std::vector<JobTable> ParseUcddcpFile(std::istream& in) {
  return ParseFile(in, 5);
}

std::vector<JobTable> LoadCddFile(const std::string& path) {
  return LoadFile(path, 3);
}

std::vector<JobTable> LoadUcddcpFile(const std::string& path) {
  return LoadFile(path, 5);
}

void WriteCddFile(std::ostream& out, const std::vector<JobTable>& tables) {
  out << tables.size() << "\n";
  for (const JobTable& jobs : tables) {
    out << jobs.size() << "\n";
    for (const Job& j : jobs) {
      out << j.proc << " " << j.early << " " << j.tardy << "\n";
    }
  }
}

void WriteUcddcpFile(std::ostream& out, const std::vector<JobTable>& tables) {
  out << tables.size() << "\n";
  for (const JobTable& jobs : tables) {
    out << jobs.size() << "\n";
    for (const Job& j : jobs) {
      out << j.proc << " " << j.min_proc << " " << j.early << " " << j.tardy
          << " " << j.compress << "\n";
    }
  }
}

Instance MakeCddInstance(const JobTable& jobs, double h) {
  const Time total = TotalProcessingTime(jobs);
  // d must be representable before the cast: NaN and |h * total| >= 2^63
  // would make it undefined.
  const double d = h * static_cast<double>(total);
  constexpr double kTimeLimit = 9223372036854775808.0;  // 2^63
  if (!(d >= -kTimeLimit && d < kTimeLimit)) {
    throw std::invalid_argument(
        "sch: due date h * sum(P_i) is outside the Time range");
  }
  return Instance(Problem::kCdd, static_cast<Time>(d), jobs);
}

Instance MakeUcddcpInstance(const JobTable& jobs) {
  return Instance(Problem::kUcddcp, TotalProcessingTime(jobs), jobs);
}

}  // namespace cdd::orlib
