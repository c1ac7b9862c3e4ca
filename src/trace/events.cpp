#include "src/trace/events.hpp"

namespace satproof::trace {

bool TraceReader::next_into(Record& out, std::vector<std::uint32_t>& pool) {
  if (!next(out)) return false;
  for (const ClauseId s : out.sources) {
    pool.push_back(static_cast<std::uint32_t>(s));
  }
  return true;
}

}  // namespace satproof::trace
