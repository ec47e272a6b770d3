#include "net/lease.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace ge::net {

void LeaseTable::reset(int64_t total, int64_t chunk) {
  if (total < 0 || chunk < 1) {
    throw std::invalid_argument(
        "LeaseTable::reset: total must be >= 0 and chunk >= 1");
  }
  std::lock_guard<std::mutex> lock(mu_);
  queue_.clear();
  live_.clear();
  total_ = total;
  completed_ = 0;
  tps_samples_.clear();
  for (int64_t lo = 0; lo < total; lo += chunk) {
    queue_.push_back(Lease{0, lo, std::min(lo + chunk, total)});
  }
}

bool LeaseTable::grant(int64_t now_ns, int64_t timeout_ns, Lease* out,
                       const std::string& worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  Lease l = queue_.front();
  queue_.pop_front();
  l.id = next_id_++;
  Live lv;
  lv.lease = l;
  lv.deadline_ns = timeout_ns > 0 ? now_ns + timeout_ns : 0;
  lv.worker = worker;
  lv.granted_ns = now_ns;
  lv.last_heartbeat_ns = now_ns;
  live_.push_back(std::move(lv));
  *out = l;
  return true;
}

bool LeaseTable::heartbeat(uint64_t id, int64_t now_ns, int64_t timeout_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Live& lv : live_) {
    if (lv.lease.id == id) {
      if (lv.deadline_ns != 0 && timeout_ns > 0) {
        lv.deadline_ns = now_ns + timeout_ns;
      }
      lv.last_heartbeat_ns = now_ns;
      return true;
    }
  }
  return false;
}

bool LeaseTable::complete(uint64_t id, int64_t now_ns, LeaseInfo* done) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].lease.id == id) {
      const Live& lv = live_[i];
      completed_ += lv.lease.hi - lv.lease.lo;
      if (done != nullptr) *done = info_locked(lv, now_ns);
      if (now_ns > lv.granted_ns) {
        const double secs =
            static_cast<double>(now_ns - lv.granted_ns) / 1e9;
        tps_samples_.push_back(
            static_cast<double>(lv.lease.hi - lv.lease.lo) / secs);
      }
      live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

bool LeaseTable::abandon(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].lease.id == id) {
      Lease l = live_[i].lease;
      l.id = 0;
      // Front of the queue: recovery work is the oldest work, run it next.
      queue_.push_front(l);
      live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
      obs::add(obs::Counter::kNetLeaseReclaims);
      return true;
    }
  }
  return false;
}

int LeaseTable::reclaim_expired(int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  int reclaimed = 0;
  for (size_t i = 0; i < live_.size();) {
    if (live_[i].deadline_ns != 0 && live_[i].deadline_ns <= now_ns) {
      Lease l = live_[i].lease;
      l.id = 0;
      queue_.push_front(l);
      live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
      obs::add(obs::Counter::kNetLeaseReclaims);
      ++reclaimed;
    } else {
      ++i;
    }
  }
  return reclaimed;
}

bool LeaseTable::all_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_ == total_;
}

int64_t LeaseTable::total_trials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

int64_t LeaseTable::completed_trials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

LeaseInfo LeaseTable::info_locked(const Live& lv, int64_t now_ns) const {
  LeaseInfo info;
  info.id = lv.lease.id;
  info.lo = lv.lease.lo;
  info.hi = lv.lease.hi;
  info.worker = lv.worker;
  info.age_ns = std::max<int64_t>(0, now_ns - lv.granted_ns);
  info.since_heartbeat_ns = std::max<int64_t>(0, now_ns - lv.last_heartbeat_ns);
  info.expires = lv.deadline_ns != 0;
  info.straggler = lv.straggler;
  return info;
}

std::vector<LeaseInfo> LeaseTable::snapshot(int64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LeaseInfo> out;
  out.reserve(live_.size());
  for (const Live& lv : live_) out.push_back(info_locked(lv, now_ns));
  return out;
}

std::vector<LeaseInfo> LeaseTable::flag_stragglers(int64_t now_ns,
                                                   double fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LeaseInfo> newly;
  if (fraction <= 0.0 || tps_samples_.size() < 2) return newly;
  std::vector<double> samples = tps_samples_;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double median = samples[mid];
  if (median <= 0.0) return newly;
  for (Live& lv : live_) {
    if (lv.deadline_ns == 0 || lv.straggler) continue;
    const double secs = static_cast<double>(now_ns - lv.granted_ns) / 1e9;
    if (secs <= 0.0) continue;
    const double bound_tps =
        static_cast<double>(lv.lease.hi - lv.lease.lo) / secs;
    if (bound_tps < fraction * median) {
      lv.straggler = true;
      obs::add(obs::Counter::kNetLeaseStragglers);
      newly.push_back(info_locked(lv, now_ns));
    }
  }
  return newly;
}

}  // namespace ge::net
