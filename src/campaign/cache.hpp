// Content-addressed result cache for campaign grid points.
//
// Every executed point stores its result document under
// `<dir>/<cache_key>.json` where cache_key is the FNV-1a hash of the
// point's canonical spec (which embeds the cfm-point/v1 schema version).
// Re-running a campaign therefore re-executes only changed or new
// points, and an interrupted campaign resumes from whatever the previous
// run managed to store.
//
// Each entry stores the full canonical spec and the model version
// alongside the result, and load() verifies both match the requesting
// build byte-for-byte: a hash collision, a stale schema, a result another
// model version computed, or a corrupt / truncated file (a campaign
// killed mid-write) all read as a clean miss and the point simply runs
// again.  Stores are atomic (write to a temp file, then rename) so a
// parallel or interrupted campaign never publishes a half-written entry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "campaign/scenario.hpp"
#include "sim/report.hpp"

namespace cfm::campaign {

/// Version of the models behind a cached result: bump it in any change
/// that moves a campaign result.  Not part of PointSpec::canonical(),
/// whose hash seeds the point: a bump must not re-seed every point.
inline constexpr std::uint64_t kModelVersion = 1;

class ResultCache {
 public:
  /// `dir` empty disables the cache (every lookup misses, stores are
  /// dropped).  The directory is created lazily on the first store.
  explicit ResultCache(std::string dir);

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// The entry file path for a point (meaningful even before it exists).
  [[nodiscard]] std::string path_for(const PointSpec& point) const;

  /// Cached result for the point, or nullopt on miss, corrupt entry, spec
  /// mismatch, or another model version.
  [[nodiscard]] std::optional<sim::Json> load(const PointSpec& point) const;

  /// True when a valid, spec-matching entry exists — the same
  /// verification as load() (a torn or stale entry reads as absent), so
  /// lease-holding workers and the polling coordinator never mistake
  /// debris for a completed point.  Lease/failure files live under
  /// `<dir>/leases/` and never collide with entries.
  [[nodiscard]] bool contains(const PointSpec& point) const {
    return load(point).has_value();
  }

  /// Stores the result atomically.  Throws std::runtime_error when the
  /// entry cannot be written — losing cache writes silently would turn
  /// "resume" into "silently re-run everything".
  void store(const PointSpec& point, const sim::Json& result) const;

 private:
  std::string dir_;
};

}  // namespace cfm::campaign
