#include "dataplane/flowlet_table.h"

#include <cassert>

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
  prev_nhop_.set(key, nhop);
}

void FlowletTable::vacate(const FlowletKey& key, FlowletEntry& entry) {
  remember_prev_nhop(key, entry.nhop);
  entry.nhop = topology::kInvalidLink;
  ++vacant_;
}

FlowletEntry* FlowletTable::lookup(const FlowletKey& key, sim::Time now) {
  auto it = table_.find(key);
  if (it == table_.end() || vacant(it->second)) {
    ++stats_.misses;
    return nullptr;
  }
  FlowletEntry& entry = it->second;
  if (!live(entry.last_seen, now)) {
    if (telemetry_ != nullptr) {
      telemetry_->metrics().add(telemetry_->core().flowlets_expired);
      if (telemetry_->tracing()) {
        emit(obs::Ev::kFlowletExpire, key, entry.nhop, now, now - entry.last_seen);
      }
    }
    vacate(key, entry);
    ++stats_.expirations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &entry;
}

const FlowletEntry* FlowletTable::peek(const FlowletKey& key, sim::Time now) const {
  auto it = table_.find(key);
  if (it == table_.end() || vacant(it->second) || !live(it->second.last_seen, now)) {
    return nullptr;
  }
  return &it->second;
}

void FlowletTable::pin(const FlowletKey& key, const FlowletEntry& entry, sim::Time now) {
  assert(!vacant(entry) && "a flowlet pin needs a next hop");
  const topology::LinkId* prev = prev_nhop_.find(key);
  const bool switched = prev != nullptr && *prev != entry.nhop;
  if (switched) ++stats_.switches;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().add(telemetry_->core().flowlets_created);
    if (switched) telemetry_->metrics().add(telemetry_->core().flowlets_switched);
    if (telemetry_->tracing()) {
      if (switched) {
        emit(obs::Ev::kFlowletSwitch, key, entry.nhop, now, static_cast<double>(*prev));
      } else {
        emit(obs::Ev::kFlowletCreate, key, entry.nhop, now);
      }
    }
  }
  if (prev != nullptr) prev_nhop_.erase(key);
  const auto [it, inserted] = table_.try_emplace(key, entry);
  if (!inserted) {
    if (vacant(it->second)) --vacant_;
    it->second = entry;
  }
}

void FlowletTable::touch(const FlowletKey& key, sim::Time now) {
  auto it = table_.find(key);
  if (it != table_.end() && !vacant(it->second)) it->second.last_seen = now;
}

void FlowletTable::flush(const FlowletKey& key, sim::Time now) {
  auto it = table_.find(key);
  if (it == table_.end() || vacant(it->second)) return;
  FlowletEntry& entry = it->second;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().add(telemetry_->core().flowlets_flushed);
    if (telemetry_->tracing()) {
      emit(obs::Ev::kFlowletFlush, key, entry.nhop, now);
    }
  }
  vacate(key, entry);
  ++stats_.flushes;
}

}  // namespace contra::dataplane
