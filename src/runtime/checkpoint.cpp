#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>
#include <sstream>

#include "parallelize/parallelize.hpp"
#include "region/snapshot.hpp"
#include "support/hash.hpp"
#include "support/serialize.hpp"

namespace dpart::runtime {

namespace fs = std::filesystem;

namespace {

constexpr const char* kFilePrefix = "ckpt-";
constexpr const char* kFileSuffix = ".dpc";

/// Parses "ckpt-NNNNNN.dpc" → NNNNNN, or nullopt for unrelated files.
std::optional<std::uint64_t> generationOf(const std::string& filename) {
  const std::string prefix = kFilePrefix;
  const std::string suffix = kFileSuffix;
  if (filename.size() <= prefix.size() + suffix.size() ||
      !filename.starts_with(prefix) || !filename.ends_with(suffix)) {
    return std::nullopt;
  }
  const char* first = filename.data() + prefix.size();
  const char* last = filename.data() + filename.size() - suffix.size();
  std::uint64_t gen = 0;
  const auto [ptr, ec] = std::from_chars(first, last, gen);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return gen;
}

void writeMeta(BinaryWriter& w, const CheckpointMeta& meta) {
  w.u64(meta.generation);
  w.u64(meta.launchIndex);
  w.u64(meta.planHash);
  w.u64(meta.pieces);
}

CheckpointMeta readMeta(BinaryReader& r) {
  CheckpointMeta meta;
  meta.generation = r.u64();
  meta.launchIndex = r.u64();
  meta.planHash = r.u64();
  meta.pieces = r.u64();
  return meta;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, int retain)
    : dir_(std::move(dir)), retain_(retain) {
  DPART_CHECK(!dir_.empty(), "checkpoint directory must be non-empty");
  DPART_CHECK(retain_ >= 1, "checkpoint retention must keep at least one");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  DPART_CHECK(!ec, "cannot create checkpoint dir '" + dir_ + "': " +
                       ec.message());
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    if (auto gen = generationOf(entry.path().filename().string())) {
      generations_.push_back(*gen);
    }
  }
  std::sort(generations_.begin(), generations_.end());
}

std::string CheckpointManager::fileFor(std::uint64_t generation) const {
  std::ostringstream os;
  os << kFilePrefix;
  std::string digits = std::to_string(generation);
  for (std::size_t pad = digits.size(); pad < 6; ++pad) os << '0';
  os << digits << kFileSuffix;
  return (fs::path(dir_) / os.str()).string();
}

void CheckpointManager::write(
    const region::World& world,
    const std::map<std::string, region::Partition>& externals,
    std::uint64_t launchIndex, std::uint64_t planHash, std::uint64_t pieces,
    FaultInjector* injector) {
  const std::uint64_t gen = latestGeneration() + 1;
  CheckpointMeta meta{gen, launchIndex, planHash, pieces};

  BinaryWriter w;
  writeMeta(w, meta);
  region::writePartitionMap(w, externals);
  // World last: restore parses meta and externals first, then restoreWorld's
  // own staging + expectEnd makes the World commit the final act of a fully
  // validated read.
  region::snapshotWorld(w, world);
  const std::vector<std::uint8_t> payload = w.take();

  std::function<void(std::vector<std::uint8_t>&)> tamper;
  if (injector != nullptr) {
    const auto fault =
        injector->fire("checkpoint:write:" + std::to_string(gen));
    if (fault && fault->kind == FaultKind::CorruptCheckpoint) {
      const double magnitude = fault->magnitude;
      tamper = [magnitude](std::vector<std::uint8_t>& blob) {
        if (blob.empty()) return;
        const auto at = static_cast<std::size_t>(
            magnitude * static_cast<double>(blob.size()));
        blob[std::min(at, blob.size() - 1)] ^= 0xFF;
      };
    }
  }
  writeFramedFile(fileFor(gen), payload, tamper);
  generations_.push_back(gen);
  metas_[gen] = meta;

  while (generations_.size() > static_cast<std::size_t>(retain_)) {
    const std::uint64_t oldest = generations_.front();
    std::error_code ec;
    fs::remove(fileFor(oldest), ec);  // best-effort; manifest is truth
    generations_.erase(generations_.begin());
    metas_.erase(oldest);
  }

  std::vector<std::pair<std::uint64_t, CheckpointMeta>> kept;
  for (std::uint64_t g : generations_) {
    auto it = metas_.find(g);
    kept.emplace_back(g, it == metas_.end() ? CheckpointMeta{g, 0, 0, 0}
                                            : it->second);
  }
  rewriteManifest(kept);
}

void CheckpointManager::rewriteManifest(
    const std::vector<std::pair<std::uint64_t, CheckpointMeta>>& kept) {
  std::ostringstream os;
  for (const auto& [gen, meta] : kept) {
    os << gen << ' ' << fs::path(fileFor(gen)).filename().string() << " launch="
       << meta.launchIndex << " plan=" << meta.planHash
       << " pieces=" << meta.pieces << '\n';
  }
  const std::string text = os.str();
  writeFileAtomic(
      (fs::path(dir_) / "MANIFEST").string(),
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

CheckpointManager::Restored CheckpointManager::restoreLatest(
    region::World& world, std::uint64_t planHash) {
  Restored out;
  std::string lastError = "no checkpoint generations in '" + dir_ + "'";
  for (auto it = generations_.rbegin(); it != generations_.rend(); ++it) {
    const std::uint64_t gen = *it;
    try {
      std::uint32_t version = kSerializeVersion;
      const std::vector<std::uint8_t> payload =
          readFramedFile(fileFor(gen), &version);
      BinaryReader r(payload);
      r.setFormatVersion(version);
      CheckpointMeta meta = readMeta(r);
      if (meta.generation != gen) {
        throw CheckpointCorruption(
            "checkpoint generation mismatch: file says " +
            std::to_string(meta.generation) + ", expected " +
            std::to_string(gen));
      }
      if (planHash != 0 && meta.planHash != planHash) {
        ++out.fallbacks;
        lastError = "generation " + std::to_string(gen) +
                    " was taken under a different plan";
        continue;
      }
      std::map<std::string, region::Partition> externals =
          region::readPartitionMap(r);
      region::restoreWorld(r, world);
      out.meta = meta;
      out.externals = std::move(externals);
      return out;
    } catch (const CheckpointCorruption& e) {
      ++out.fallbacks;
      lastError = e.what();
    }
  }
  throw CheckpointCorruption("no valid checkpoint to restore (tried " +
                             std::to_string(generations_.size()) +
                             " generation(s); last error: " + lastError + ")");
}

std::uint64_t CheckpointManager::hashPlan(const parallelize::ParallelPlan& plan) {
  const std::uint64_t h = fnv1a64(plan.toString());
  return h == 0 ? 1 : h;  // 0 means "any plan" to restoreLatest
}

}  // namespace dpart::runtime
