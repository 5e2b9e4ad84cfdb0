#include "persist/persist.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "base/log.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace javer::persist {

void fold_stats(obs::MetricsRegistry& metrics, const PersistStats& stats) {
  metrics.add("persist.templates_loaded", stats.templates_loaded);
  metrics.add("persist.templates_stored", stats.templates_stored);
  metrics.add("persist.dbs_loaded", stats.dbs_loaded);
  metrics.add("persist.dbs_stored", stats.dbs_stored);
  metrics.add("persist.cubes_loaded", stats.cubes_loaded);
  metrics.add("persist.load_errors", stats.load_errors);
  metrics.add("persist.store_errors", stats.store_errors);
  metrics.add("persist.store_retries", stats.store_retries);
}

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'J', 'V', 'P', 'C'};
constexpr std::uint16_t kFormatVersion = 1;
constexpr std::uint16_t kKindTemplate = 1;
constexpr std::uint16_t kKindClauseDb = 2;
// magic + version + kind + payload size + trailing checksum.
constexpr std::size_t kHeaderSize = 4 + 2 + 2 + 8;
constexpr std::size_t kEnvelopeSize = kHeaderSize + 8;

// --- little-endian payload writer/reader ------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) put_u8(out, (v >> (8 * i)) & 0xff);
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, (v >> (8 * i)) & 0xff);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, (v >> (8 * i)) & 0xff);
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_lits(std::string& out, const std::vector<sat::Lit>& lits) {
  put_u64(out, lits.size());
  for (sat::Lit l : lits) put_i32(out, l.code());
}

// Bounds-checked reader over bytes [pos, end) of a verified file buffer;
// any underflow throws, which the loaders turn into an ignored entry.
struct Reader {
  const std::string& data;
  std::size_t pos = 0;
  std::size_t end = 0;  // one past the last readable byte

  std::uint8_t u8() {
    if (pos >= end) throw std::runtime_error("payload underflow");
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint16_t u16() {
    // Two sequenced statements: a single `u8() | (u8() << 8)` expression
    // would leave the byte order to the compiler's evaluation order.
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (std::uint16_t{u8()} << 8));
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{u8()} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{u8()} << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  // Element counts are bounded by the bytes actually present, so a
  // corrupted length cannot trigger a huge up-front allocation.
  std::size_t count(std::size_t min_elem_bytes) {
    std::uint64_t n = u64();
    if (n > (end - pos) / min_elem_bytes) {
      throw std::runtime_error("payload count exceeds data");
    }
    return static_cast<std::size_t>(n);
  }
  std::size_t count32(std::size_t min_elem_bytes) {
    std::uint32_t n = u32();
    if (n > (end - pos) / min_elem_bytes) {
      throw std::runtime_error("payload count exceeds data");
    }
    return n;
  }
  std::vector<sat::Lit> lits() {
    std::size_t n = count(4);
    std::vector<sat::Lit> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(sat::Lit::from_code(i32()));
    }
    return out;
  }
  void expect_end() const {
    if (pos != end) throw std::runtime_error("trailing payload");
  }
};

// A reader over the (already checksum-verified) payload region of a full
// entry file as returned by read_entry.
Reader payload_reader(const std::string& file) {
  return Reader{file, kHeaderSize, file.size() - 8};
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool lit_in_range(sat::Lit l, int num_vars) {
  return l.var() >= 0 && l.var() < num_vars;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t index_set_signature(std::vector<std::size_t> indices) {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::string bytes;
  bytes.reserve(indices.size() * 8);
  for (std::size_t i : indices) put_u64(bytes, i);
  return fnv1a64(bytes.data(), bytes.size());
}

std::string PersistCache::template_file_name(
    std::uint64_t fingerprint, const cnf::CnfTemplate::Spec& spec) {
  // The spec hash folds the (sorted) property set and the simplify flag;
  // the fingerprint stays readable in the name for debugging.
  std::string bytes;
  put_u8(bytes, spec.simplify ? 1 : 0);
  std::vector<std::size_t> props = spec.props;
  std::sort(props.begin(), props.end());
  props.erase(std::unique(props.begin(), props.end()), props.end());
  for (std::size_t p : props) put_u64(bytes, p);
  return "tmpl-" + hex16(fingerprint) + "-" +
         hex16(fnv1a64(bytes.data(), bytes.size())) + ".jvpc";
}

std::string PersistCache::clause_db_file_name(std::uint64_t fingerprint,
                                              std::uint64_t signature) {
  return "cdb-" + hex16(fingerprint) + "-" + hex16(signature) + ".jvpc";
}

PersistCache::PersistCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("persist: cannot create cache dir '" + dir_ +
                             "'");
  }
  // Probe writability now so a read-only directory fails loudly at setup
  // instead of silently dropping every store during the run.
  const fs::path probe = fs::path(dir_) / ".jvpc-probe";
  {
    std::ofstream out(probe, std::ios::binary | std::ios::trunc);
    out << 'x';
    if (!out) {
      throw std::runtime_error("persist: cache dir '" + dir_ +
                               "' is not writable");
    }
  }
  fs::remove(probe, ec);
}

bool PersistCache::write_entry(const std::string& name, std::uint16_t kind,
                               const std::string& payload) {
  std::string file;
  file.reserve(kEnvelopeSize + payload.size());
  file.append(kMagic, sizeof kMagic);
  put_u16(file, kFormatVersion);
  put_u16(file, kind);
  put_u64(file, payload.size());
  file += payload;
  put_u64(file, fnv1a64(payload.data(), payload.size()));

  // Every writer stages to its own tmp file — unique per process (pid)
  // and per write (counter), so even two processes sharing one cache
  // directory never scribble over each other's staging file — and the
  // rename publishes atomically: readers see old-or-new, never a torn
  // entry.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const fs::path path = fs::path(dir_) / name;
  const fs::path tmp =
      fs::path(dir_) / (name + ".tmp." + std::to_string(::getpid()) + "." +
                        std::to_string(tmp_serial.fetch_add(1)));
  base::MutexLock lock(mu_);

  // Injected mid-write crash (fault plan site "persist.store.crash"):
  // leave a partially written staging file behind — exactly the footprint
  // a real crash or disk-full cut-off leaves — and fail the store with no
  // retry. The orphan is swept by the next collect_garbage pass; readers
  // never see it (only the atomic rename publishes).
  if (fault::inject_io("persist.store.crash")) {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size() / 2));
    stats_.store_errors++;
    return false;
  }

  // Transient store I/O (short write, EIO/ENOSPC that clears): bounded
  // retry with a short backoff, re-staging from scratch each attempt. An
  // injected "persist.store" fault fails exactly one attempt, so a
  // one-shot plan entry exercises the recovery path and a persistent one
  // the exhaustion path. Distinct from the corrupt-entry cold-degrade on
  // the load side: these bytes are good, the device hiccuped.
  constexpr int kStoreAttempts = 3;
  for (int attempt = 0; attempt < kStoreAttempts; ++attempt) {
    if (attempt > 0) {
      stats_.store_retries++;
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    }
    bool wrote = false;
    if (!fault::inject_io("persist.store")) {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(file.data(), static_cast<std::streamsize>(file.size()));
      out.flush();
      wrote = static_cast<bool>(out);
    }
    if (wrote) {
      std::error_code ec;
      fs::rename(tmp, path, ec);
      if (!ec) return true;
    }
    std::error_code ec;
    fs::remove(tmp, ec);
  }
  stats_.store_errors++;
  return false;
}

std::optional<std::string> PersistCache::read_entry(const std::string& name,
                                                    std::uint16_t kind) {
  const fs::path path = fs::path(dir_) / name;
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;  // cold, not an error

  auto reject = [&](const char* why) -> std::optional<std::string> {
    JAVER_LOG(Info) << "persist: ignoring cache entry " << name << " ("
                    << why << ")";
    base::MutexLock lock(mu_);
    stats_.load_errors++;
    return std::nullopt;
  };

  // Injected read-side EIO (fault plan site "persist.load"): exercises
  // the existing cold-degrade path — the entry is ignored, never trusted.
  if (fault::inject_io("persist.load")) return reject("injected I/O error");

  std::ifstream in(path, std::ios::binary);
  if (!in) return reject("unreadable");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return reject("unreadable");
  std::string file(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(file.data(), size);
  if (!in) return reject("unreadable");
  if (file.size() < kEnvelopeSize) return reject("truncated header");
  if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) {
    return reject("bad magic");
  }
  Reader header{file, sizeof kMagic, file.size()};
  if (header.u16() != kFormatVersion) return reject("format version mismatch");
  if (header.u16() != kind) return reject("entry kind mismatch");
  const std::uint64_t payload_size = header.u64();
  if (payload_size != file.size() - kEnvelopeSize) {
    return reject("truncated payload");
  }
  Reader trailer{file, kHeaderSize + static_cast<std::size_t>(payload_size),
                 file.size()};
  if (trailer.u64() !=
      fnv1a64(file.data() + kHeaderSize, static_cast<std::size_t>(payload_size))) {
    return reject("checksum mismatch");
  }
  // Last-used stamp: touching the mtime on every successful read lets an
  // eviction pass (ROADMAP) age out entries by recency without a format
  // change. Best-effort — a read-only cache still serves entries.
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return file;
}

// --- templates ---------------------------------------------------------------

std::shared_ptr<const cnf::CnfTemplate> PersistCache::load_template(
    const ts::TransitionSystem& ts, std::uint64_t fingerprint,
    const cnf::CnfTemplate::Spec& spec) {
  obs::TraceSpan span(trace_, "persist", "load_template");
  obs::ProfileTimer prof(prof_load_);
  const std::string name = template_file_name(fingerprint, spec);
  std::optional<std::string> entry = read_entry(name, kKindTemplate);
  if (!entry) return nullptr;

  auto reject = [&](const char* why) {
    JAVER_LOG(Info) << "persist: ignoring template entry " << name << " ("
                    << why << ")";
    base::MutexLock lock(mu_);
    stats_.load_errors++;
    return nullptr;
  };

  try {
    Reader r = payload_reader(*entry);
    if (r.u64() != fingerprint) return reject("fingerprint mismatch");
    const bool simplify = r.u8() != 0;
    std::size_t nprops = r.count(8);
    std::vector<std::size_t> props;
    props.reserve(nprops);
    for (std::size_t i = 0; i < nprops; ++i) {
      props.push_back(static_cast<std::size_t>(r.u64()));
    }
    cnf::CnfTemplate::Spec stored;
    stored.props = props;
    stored.simplify = simplify;
    std::vector<std::size_t> want = spec.props;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    if (simplify != spec.simplify || props != want) {
      return reject("spec mismatch");
    }

    cnf::CnfTemplate::Restored parts;
    parts.true_lit = sat::Lit::from_code(r.i32());
    parts.latch_lits = r.lits();
    parts.input_lits = r.lits();
    parts.next_lits = r.lits();
    parts.prop_lits = r.lits();
    parts.constraint_lits = r.lits();
    parts.num_vars = r.i32();
    std::size_t nclauses = r.count(4);
    parts.clauses.reserve(nclauses);
    for (std::size_t i = 0; i < nclauses; ++i) {
      std::size_t len = r.count32(4);
      std::vector<sat::Lit> clause;
      clause.reserve(len);
      for (std::size_t j = 0; j < len; ++j) {
        clause.push_back(sat::Lit::from_code(r.i32()));
      }
      parts.clauses.push_back(std::move(clause));
    }
    std::size_t nelim = r.count(4);
    parts.eliminated.reserve(nelim);
    for (std::size_t i = 0; i < nelim; ++i) parts.eliminated.push_back(r.i32());
    r.expect_end();

    // Structural validation against the design this template will be
    // replayed into: pivot counts must match and every literal must live
    // in the template's variable space. (The fingerprint already ties the
    // entry to the design; this is the belt to that suspender.)
    if (parts.num_vars <= 0 ||
        parts.latch_lits.size() != ts.num_latches() ||
        parts.input_lits.size() != ts.num_inputs() ||
        parts.next_lits.size() != ts.num_latches() ||
        parts.prop_lits.size() != props.size()) {
      return reject("pivot table does not match the design");
    }
    for (std::size_t p : props) {
      if (p >= ts.num_properties()) return reject("property out of range");
    }
    auto all_in_range = [&](const std::vector<sat::Lit>& lits) {
      for (sat::Lit l : lits) {
        if (!lit_in_range(l, parts.num_vars)) return false;
      }
      return true;
    };
    if (!lit_in_range(parts.true_lit, parts.num_vars) ||
        !all_in_range(parts.latch_lits) || !all_in_range(parts.input_lits) ||
        !all_in_range(parts.next_lits) || !all_in_range(parts.prop_lits) ||
        !all_in_range(parts.constraint_lits)) {
      return reject("pivot literal out of range");
    }
    for (const auto& clause : parts.clauses) {
      if (!all_in_range(clause)) return reject("clause literal out of range");
    }
    for (sat::Var v : parts.eliminated) {
      if (v < 0 || v >= parts.num_vars) {
        return reject("eliminated variable out of range");
      }
    }

    auto tmpl = std::make_shared<const cnf::CnfTemplate>(std::move(stored),
                                                         std::move(parts));
    {
      base::MutexLock lock(mu_);
      stats_.templates_loaded++;
    }
    return tmpl;
  } catch (const std::exception& e) {
    return reject(e.what());
  }
}

void PersistCache::store_template(std::uint64_t fingerprint,
                                  const cnf::CnfTemplate& tmpl) {
  obs::TraceSpan span(trace_, "persist", "store_template");
  obs::ProfileTimer prof(prof_store_);
  std::string payload;
  put_u64(payload, fingerprint);
  put_u8(payload, tmpl.spec().simplify ? 1 : 0);
  put_u64(payload, tmpl.spec().props.size());
  for (std::size_t p : tmpl.spec().props) put_u64(payload, p);
  put_i32(payload, tmpl.true_lit().code());
  put_lits(payload, tmpl.latch_lits());
  put_lits(payload, tmpl.input_lits());
  put_lits(payload, tmpl.next_lits());
  {
    std::vector<sat::Lit> prop_lits;
    prop_lits.reserve(tmpl.spec().props.size());
    for (std::size_t p : tmpl.spec().props) {
      prop_lits.push_back(tmpl.property_lit(p));
    }
    put_lits(payload, prop_lits);
  }
  put_lits(payload, tmpl.constraint_lits());
  put_i32(payload, tmpl.num_vars());
  put_u64(payload, tmpl.clauses().size());
  for (const auto& clause : tmpl.clauses()) {
    put_u32(payload, static_cast<std::uint32_t>(clause.size()));
    for (sat::Lit l : clause) put_i32(payload, l.code());
  }
  put_u64(payload, tmpl.eliminated_vars().size());
  for (sat::Var v : tmpl.eliminated_vars()) put_i32(payload, v);

  if (write_entry(template_file_name(fingerprint, tmpl.spec()),
                  kKindTemplate, payload)) {
    base::MutexLock lock(mu_);
    stats_.templates_stored++;
  }
}

// --- shard clause DBs --------------------------------------------------------

std::optional<std::vector<ts::Cube>> PersistCache::load_clause_db(
    const ts::TransitionSystem& ts, std::uint64_t fingerprint,
    std::uint64_t signature) {
  obs::TraceSpan span(trace_, "persist", "load_clause_db");
  obs::ProfileTimer prof(prof_load_);
  const std::string name = clause_db_file_name(fingerprint, signature);
  std::optional<std::string> entry = read_entry(name, kKindClauseDb);
  if (!entry) return std::nullopt;

  auto reject = [&](const char* why) {
    JAVER_LOG(Info) << "persist: ignoring clause-db entry " << name << " ("
                    << why << ")";
    base::MutexLock lock(mu_);
    stats_.load_errors++;
    return std::nullopt;
  };

  try {
    Reader r = payload_reader(*entry);
    if (r.u64() != fingerprint) return reject("fingerprint mismatch");
    if (r.u64() != signature) return reject("signature mismatch");
    const int num_latches = static_cast<int>(ts.num_latches());
    std::size_t ncubes = r.count(4);
    std::vector<ts::Cube> cubes;
    cubes.reserve(ncubes);
    for (std::size_t i = 0; i < ncubes; ++i) {
      std::size_t len = r.count32(5);
      ts::Cube cube;
      cube.reserve(len);
      for (std::size_t j = 0; j < len; ++j) {
        std::int32_t latch = r.i32();
        std::uint8_t value = r.u8();
        if (latch < 0 || latch >= num_latches || value > 1) {
          return reject("cube literal out of range");
        }
        cube.push_back(ts::StateLit{latch, value != 0});
      }
      if (!cube.empty()) cubes.push_back(std::move(cube));
    }
    r.expect_end();
    {
      base::MutexLock lock(mu_);
      stats_.dbs_loaded++;
      stats_.cubes_loaded += cubes.size();
    }
    return cubes;
  } catch (const std::exception& e) {
    return reject(e.what());
  }
}

void PersistCache::store_clause_db(std::uint64_t fingerprint,
                                   std::uint64_t signature,
                                   const std::vector<ts::Cube>& cubes) {
  obs::TraceSpan span(trace_, "persist", "store_clause_db");
  obs::ProfileTimer prof(prof_store_);
  std::string payload;
  put_u64(payload, fingerprint);
  put_u64(payload, signature);
  put_u64(payload, cubes.size());
  for (const ts::Cube& cube : cubes) {
    put_u32(payload, static_cast<std::uint32_t>(cube.size()));
    for (const ts::StateLit& l : cube) {
      put_i32(payload, l.latch);
      put_u8(payload, l.value ? 1 : 0);
    }
  }
  if (write_entry(clause_db_file_name(fingerprint, signature), kKindClauseDb,
                  payload)) {
    base::MutexLock lock(mu_);
    stats_.dbs_stored++;
  }
}

PersistStats PersistCache::stats() const {
  base::MutexLock lock(mu_);
  return stats_;
}

// --- cache eviction ----------------------------------------------------------

namespace {

// Envelope check shared by both entry kinds: magic, format version,
// payload size and checksum. Kind is not checked — GC keeps any entry a
// current reader could in principle verify.
bool envelope_valid(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0 || static_cast<std::size_t>(size) < kEnvelopeSize) {
    return false;
  }
  std::string file(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(file.data(), size);
  if (!in) return false;
  if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) return false;
  Reader header{file, sizeof kMagic, file.size()};
  try {
    if (header.u16() != kFormatVersion) return false;
    header.u16();  // kind: any known-or-future kind is fine
    const std::uint64_t payload_size = header.u64();
    if (payload_size != file.size() - kEnvelopeSize) return false;
    Reader trailer{file, kHeaderSize + static_cast<std::size_t>(payload_size),
                   file.size()};
    return trailer.u64() == fnv1a64(file.data() + kHeaderSize,
                                    static_cast<std::size_t>(payload_size));
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

GcStats collect_garbage(const std::string& dir, const GcOptions& opts) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    throw std::runtime_error("persist: '" + dir + "' is not a directory");
  }
  GcStats stats;
  struct Entry {
    fs::path path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    // Abandoned staging files (a crashed writer's .tmp.<pid>.<n>): a live
    // writer holds its tmp file only for the duration of one rename, so
    // anything still here is garbage.
    if (name.find(".jvpc.tmp.") != std::string::npos) {
      if (fs::remove(de.path(), ec)) stats.removed_stale_tmp++;
      continue;
    }
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".jvpc") != 0) {
      continue;  // not ours; never touch foreign files
    }
    stats.scanned++;
    const std::uint64_t size = de.file_size(ec);
    stats.bytes_before += ec ? 0 : size;
    if (!envelope_valid(de.path())) {
      if (fs::remove(de.path(), ec)) stats.removed_corrupt++;
      continue;
    }
    entries.push_back(Entry{de.path(), size, de.last_write_time(ec)});
  }

  if (opts.max_age_days > 0) {
    // Ages are compared in double seconds: a cutoff `now - max_age` in the
    // clock's integer ticks underflows for a large age and lands in the
    // future, which would evict everything. An age beyond the clock's
    // range evicts nothing.
    using Seconds = std::chrono::duration<double>;
    const double now_s = Seconds(now.time_since_epoch()).count();
    const double max_age_s = opts.max_age_days * 86400.0;
    std::vector<Entry> young;
    for (Entry& e : entries) {
      if (now_s - Seconds(e.mtime.time_since_epoch()).count() > max_age_s) {
        if (fs::remove(e.path, ec)) stats.removed_age++;
      } else {
        young.push_back(std::move(e));
      }
    }
    entries = std::move(young);
  }

  if (opts.max_bytes > 0) {
    // Oldest-first eviction until the valid entries fit the cap. mtime is
    // the last-used stamp (refreshed on every successful read), so this
    // is LRU over runs.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
    std::uint64_t total = 0;
    for (const Entry& e : entries) total += e.size;
    std::size_t i = 0;
    while (total > opts.max_bytes && i < entries.size()) {
      if (fs::remove(entries[i].path, ec)) {
        stats.removed_size++;
        total -= entries[i].size;
      }
      i++;
    }
    entries.erase(entries.begin(), entries.begin() + i);
  }

  stats.kept = entries.size();
  for (const Entry& e : entries) stats.bytes_after += e.size;
  JAVER_LOG(Info) << "persist: gc kept " << stats.kept << "/" << stats.scanned
                  << " entries (" << stats.bytes_after << " bytes), removed "
                  << stats.removed_age << " by age, " << stats.removed_size
                  << " by size, " << stats.removed_corrupt << " corrupt, "
                  << stats.removed_stale_tmp << " stale tmp";
  return stats;
}

}  // namespace javer::persist
