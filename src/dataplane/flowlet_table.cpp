#include "dataplane/flowlet_table.h"

namespace contra::dataplane {

void FlowletTable::emit(obs::Ev ev, const FlowletKey& key, topology::LinkId nhop,
                        double t, double value) const {
  obs::TraceRecord r;
  r.t = t;
  r.ev = ev;
  r.sw = switch_id_;
  r.tag = key.tag;
  r.pid = key.pid;
  r.aux = key.fid;
  r.link = nhop;
  r.value = value;
  telemetry_->emit(r);
}

void FlowletTable::remember_prev_nhop(const FlowletKey& key, topology::LinkId nhop) {
  if (prev_nhop_.size() >= kPrevNhopCap) prev_nhop_.clear();
  prev_nhop_[key] = nhop;
}

FlowletEntry* FlowletTable::lookup(const FlowletKey& key, sim::Time now) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (!live(it->second.last_seen, now)) {
    remember_prev_nhop(key, it->second.nhop);
    if (telemetry_ != nullptr) {
      telemetry_->metrics().add(telemetry_->core().flowlets_expired);
      if (telemetry_->tracing()) {
        emit(obs::Ev::kFlowletExpire, key, it->second.nhop, now,
             now - it->second.last_seen);
      }
    }
    table_.erase(it);
    ++stats_.expirations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

const FlowletEntry* FlowletTable::peek(const FlowletKey& key, sim::Time now) const {
  auto it = table_.find(key);
  if (it == table_.end() || !live(it->second.last_seen, now)) return nullptr;
  return &it->second;
}

void FlowletTable::pin(const FlowletKey& key, const FlowletEntry& entry, sim::Time now) {
  auto prev = prev_nhop_.find(key);
  const bool switched = prev != prev_nhop_.end() && prev->second != entry.nhop;
  if (switched) ++stats_.switches;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().add(telemetry_->core().flowlets_created);
    if (switched) telemetry_->metrics().add(telemetry_->core().flowlets_switched);
    if (telemetry_->tracing()) {
      if (switched) {
        emit(obs::Ev::kFlowletSwitch, key, entry.nhop, now,
             static_cast<double>(prev->second));
      } else {
        emit(obs::Ev::kFlowletCreate, key, entry.nhop, now);
      }
    }
  }
  if (prev != prev_nhop_.end()) prev_nhop_.erase(prev);
  table_[key] = entry;
}

void FlowletTable::touch(const FlowletKey& key, sim::Time now) {
  auto it = table_.find(key);
  if (it != table_.end()) it->second.last_seen = now;
}

void FlowletTable::flush(const FlowletKey& key, sim::Time now) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  remember_prev_nhop(key, it->second.nhop);
  if (telemetry_ != nullptr) {
    telemetry_->metrics().add(telemetry_->core().flowlets_flushed);
    if (telemetry_->tracing()) {
      emit(obs::Ev::kFlowletFlush, key, it->second.nhop, now);
    }
  }
  table_.erase(it);
  ++stats_.flushes;
}

}  // namespace contra::dataplane
