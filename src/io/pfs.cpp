#include "io/pfs.h"

#include "common/buffer_pool.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace eblcio {

PfsSimulator::PfsSimulator(PfsConfig config) : config_(config) {
  EBLCIO_CHECK_ARG(config_.num_osts >= 1, "PFS needs at least one OST");
  EBLCIO_CHECK_ARG(config_.stripe_count >= 1 &&
                       config_.stripe_count <= config_.num_osts,
                   "stripe count must be in [1, num_osts]");
  EBLCIO_CHECK_ARG(config_.stripe_size > 0, "stripe size must be positive");
}

double PfsSimulator::effective_bandwidth(int concurrent_clients) const {
  const int clients = std::max(concurrent_clients, 1);
  const double aggregate = config_.num_osts * config_.ost_bandwidth_bps;
  const double stripe_limit =
      config_.stripe_count * config_.ost_bandwidth_bps;
  const double share = aggregate / clients;
  return std::min({config_.client_bandwidth_bps, stripe_limit, share});
}

double PfsSimulator::transfer_seconds(std::size_t bytes,
                                      int concurrent_clients) const {
  const int clients = std::max(concurrent_clients, 1);
  const double bw = effective_bandwidth(clients);
  const std::size_t nstripes =
      bytes == 0 ? 0 : (bytes + config_.stripe_size - 1) / config_.stripe_size;
  // Metadata service queues across clients: each open costs the base
  // latency plus its share of the MDS backlog.
  const double mds = config_.open_latency_s +
                     config_.mds_service_s * static_cast<double>(clients);
  return mds + static_cast<double>(nstripes) * config_.rpc_latency_s +
         static_cast<double>(bytes) / bw;
}

PfsSimulator::WriteResult PfsSimulator::write_file(
    const std::string& path, std::span<const std::byte> data,
    int concurrent_clients) {
  StoredFile f;
  f.size = data.size();
  f.stripe_count = config_.stripe_count;
  f.stripe_size = config_.stripe_size;
  for (std::size_t off = 0; off < data.size(); off += config_.stripe_size) {
    const std::size_t len = std::min(config_.stripe_size, data.size() - off);
    f.stripes.emplace_back(data.begin() + off, data.begin() + off + len);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    f.first_ost = next_ost_;
    next_ost_ = (next_ost_ + config_.stripe_count) % config_.num_osts;
    files_[path] = std::move(f);
  }

  WriteResult r;
  r.bytes = data.size();
  r.seconds = transfer_seconds(data.size(), concurrent_clients);
  r.effective_bw_bps = effective_bandwidth(concurrent_clients);
  return r;
}

PfsSimulator::WriteResult PfsSimulator::append_file(
    const std::string& path, std::span<const std::byte> data,
    int concurrent_clients) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = files_.find(path);
  const bool creating = it == files_.end();
  if (creating) {
    StoredFile f;
    f.stripe_count = config_.stripe_count;
    f.stripe_size = config_.stripe_size;
    f.first_ost = next_ost_;
    next_ost_ = (next_ost_ + config_.stripe_count) % config_.num_osts;
    it = files_.emplace(path, std::move(f)).first;
  }
  StoredFile& f = it->second;

  // Fill the trailing partial stripe first, then allocate new units.
  const std::size_t offset = f.size;
  std::size_t off = 0;
  if (!f.stripes.empty() && f.stripes.back().size() < f.stripe_size) {
    Bytes& tail = f.stripes.back();
    const std::size_t take =
        std::min(f.stripe_size - tail.size(), data.size());
    tail.insert(tail.end(), data.begin(), data.begin() + take);
    off += take;
  }
  while (off < data.size()) {
    const std::size_t len = std::min(f.stripe_size, data.size() - off);
    f.stripes.emplace_back(data.begin() + off, data.begin() + off + len);
    off += len;
  }
  f.size += data.size();
  lock.unlock();

  WriteResult r = append_price(offset, data.size(), concurrent_clients);
  if (creating)
    r.seconds += config_.open_latency_s +
                 config_.mds_service_s *
                     static_cast<double>(std::max(concurrent_clients, 1));
  return r;
}

PfsSimulator::WriteResult PfsSimulator::append_price(
    std::size_t offset, std::size_t length, int concurrent_clients) const {
  const double bw = effective_bandwidth(std::max(concurrent_clients, 1));
  WriteResult r;
  r.bytes = length;
  r.effective_bw_bps = bw;
  r.seconds =
      static_cast<double>(append_stripes(offset, length)) *
          config_.rpc_latency_s +
      static_cast<double>(length) / bw;
  return r;
}

std::size_t PfsSimulator::append_stripes(std::size_t offset,
                                         std::size_t length) const {
  const std::size_t unit = config_.stripe_size;
  if (length == 0) return offset % unit != 0 ? 1 : 0;
  return (offset + length - 1) / unit - offset / unit + 1;
}

PfsSimulator::AppendStream PfsSimulator::open_append(const std::string& path) {
  remove(path);  // truncate: streams always start a fresh container
  return AppendStream(this, path);
}

PfsSimulator::WriteResult PfsSimulator::AppendStream::append(
    std::span<const std::byte> data, int concurrent_clients) {
  // Count this stream as a live writer only for the transfer itself.
  WriteResult r;
  {
    const WriterScope moving(*pfs_);
    r = pfs_->append_file(path_, data, concurrent_clients);
  }
  bytes_ += r.bytes;
  seconds_ += r.seconds;
  return r;
}

PfsSimulator::WriteResult PfsSimulator::read_price(std::size_t offset,
                                                   std::size_t length,
                                                   int concurrent_clients,
                                                   bool pay_open) const {
  const std::size_t unit = config_.stripe_size;
  // Stripe unit k holds [k * unit, (k + 1) * unit).
  const std::size_t stripes_touched =
      length == 0 ? 0 : (offset + length - 1) / unit - offset / unit + 1;
  const int clients = std::max(concurrent_clients, 1);
  const double bw = effective_bandwidth(clients);
  WriteResult r;
  r.bytes = length;
  r.effective_bw_bps = bw;
  r.seconds = static_cast<double>(stripes_touched) * config_.rpc_latency_s +
              static_cast<double>(length) / bw;
  if (pay_open)
    r.seconds += config_.open_latency_s +
                 config_.mds_service_s * static_cast<double>(clients);
  return r;
}

PfsSimulator::WriteResult PfsSimulator::read_cost(
    const std::string& path, int concurrent_clients) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = files_.find(path);
  EBLCIO_CHECK_ARG(it != files_.end(), "no such file: " + path);
  const std::size_t size = it->second.size;
  lock.unlock();
  // One open plus a per-stripe RPC for every stripe the whole-file read
  // touches — the same pricing a matching sequence of appends paid.
  return read_price(0, size, concurrent_clients, true);
}

PfsSimulator::RangeRead PfsSimulator::read_range(const std::string& path,
                                                 std::size_t offset,
                                                 std::size_t length,
                                                 int concurrent_clients,
                                                 bool pay_open) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = files_.find(path);
  EBLCIO_CHECK_ARG(it != files_.end(), "no such file: " + path);
  const StoredFile& f = it->second;
  // Overflow-safe extent check: a corrupt chunk index may carry offsets
  // near SIZE_MAX, and offset + length must not wrap.
  EBLCIO_CHECK_ARG(length <= f.size && offset <= f.size - length,
                   "read_range past end of file: " + path);

  RangeRead r;
  // Ranged fetches are the per-slab hot path of the streamed read
  // pipeline; recycling the fetch buffer makes steady-state reads
  // allocation-free at this layer (consumers release() once drained).
  r.data = BufferPool::global().acquire(length);
  r.data.reserve(length);
  if (length > 0) {
    // Stripe unit k holds [k * stripe_size, (k + 1) * stripe_size); only
    // the trailing unit may be partial, so indexing is direct.
    const std::size_t first = offset / f.stripe_size;
    const std::size_t last = (offset + length - 1) / f.stripe_size;
    for (std::size_t k = first; k <= last; ++k) {
      const std::size_t stripe_begin = k * f.stripe_size;
      const std::size_t lo =
          offset > stripe_begin ? offset - stripe_begin : 0;
      const std::size_t hi =
          std::min(f.stripes[k].size(), offset + length - stripe_begin);
      r.data.insert(r.data.end(), f.stripes[k].begin() + lo,
                    f.stripes[k].begin() + hi);
    }
  }
  lock.unlock();

  r.cost = read_price(offset, length, concurrent_clients, pay_open);
  return r;
}

PfsSimulator::ReadStream PfsSimulator::open_read(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  EBLCIO_CHECK_ARG(it != files_.end(), "no such file: " + path);
  return ReadStream(this, path, it->second.size);
}

PfsSimulator::RangeRead PfsSimulator::ReadStream::read(
    std::size_t offset, std::size_t length, int concurrent_clients) {
  // Count this stream as a live reader only for the transfer itself.
  RangeRead r;
  {
    const ReaderScope moving(*pfs_);
    r = pfs_->read_range(path_, offset, length, concurrent_clients, !opened_);
  }
  opened_ = true;
  bytes_ += r.cost.bytes;
  seconds_ += r.cost.seconds;
  return r;
}

Bytes PfsSimulator::read_file(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  EBLCIO_CHECK_ARG(it != files_.end(), "no such file: " + path);
  Bytes out;
  out.reserve(it->second.size);
  for (const Bytes& s : it->second.stripes)
    out.insert(out.end(), s.begin(), s.end());
  return out;
}

bool PfsSimulator::exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

std::size_t PfsSimulator::file_size(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  EBLCIO_CHECK_ARG(it != files_.end(), "no such file: " + path);
  return it->second.size;
}

void PfsSimulator::remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
}

std::vector<std::string> PfsSimulator::list_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;
}

std::vector<std::size_t> PfsSimulator::ost_usage() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> usage(config_.num_osts, 0);
  for (const auto& [name, file] : files_) {
    for (std::size_t k = 0; k < file.stripes.size(); ++k) {
      const int ost =
          (file.first_ost + static_cast<int>(k % file.stripe_count)) %
          config_.num_osts;
      usage[ost] += file.stripes[k].size();
    }
  }
  return usage;
}

void PfsSimulator::register_writers(int n) {
  const int now = writers_.fetch_add(n) + n;
  int peak = writer_peak_.load();
  while (peak < now && !writer_peak_.compare_exchange_weak(peak, now)) {
  }
}

void PfsSimulator::register_readers(int n) const {
  const int now = readers_.fetch_add(n) + n;
  int peak = reader_peak_.load();
  while (peak < now && !reader_peak_.compare_exchange_weak(peak, now)) {
  }
}

PfsSimulator::WriterScope::WriterScope(PfsSimulator& pfs, int writers)
    : pfs_(&pfs), writers_(writers) {
  EBLCIO_CHECK_ARG(writers >= 1, "writer scope needs at least one writer");
  pfs_->register_writers(writers_);
}

PfsSimulator::WriterScope::~WriterScope() {
  pfs_->unregister_writers(writers_);
}

PfsSimulator::ReaderScope::ReaderScope(const PfsSimulator& pfs, int readers)
    : pfs_(&pfs), readers_(readers) {
  EBLCIO_CHECK_ARG(readers >= 1, "reader scope needs at least one reader");
  pfs_->register_readers(readers_);
}

PfsSimulator::ReaderScope::~ReaderScope() {
  pfs_->unregister_readers(readers_);
}

}  // namespace eblcio
