#include "ops/conflict.h"

#include <algorithm>

namespace axmlx::ops {

void ConflictTable::BeginWriter(uint64_t writer, uint64_t snapshot) {
  active_[writer] = snapshot;
}

void ConflictTable::EndWriter(uint64_t writer) { active_.erase(writer); }

void ConflictTable::AbortWriter(uint64_t writer, uint64_t first_version) {
  active_.erase(writer);
  if (first_version != 0) aborted_[writer] = first_version;
}

void ConflictTable::ForgetAbortedThrough(uint64_t version) {
  std::erase_if(aborted_, [version](const auto& entry) {
    return entry.second <= version;
  });
}

bool ConflictTable::IsActive(uint64_t writer) const {
  return active_.count(writer) != 0;
}

uint64_t ConflictTable::OldestSnapshot(uint64_t fallback) const {
  uint64_t oldest = fallback;
  for (const auto& [writer, snapshot] : active_) {
    oldest = std::min(oldest, snapshot);
  }
  return oldest;
}

void ConflictTable::FootprintOf(const OpEffect& effect,
                                std::vector<xml::NodeId>* out) {
  for (const xml::Edit& edit : effect.edits.edits()) {
    switch (edit.kind) {
      case xml::Edit::Kind::kInsertSubtree:
        out->push_back(edit.parent);
        out->push_back(edit.node);
        break;
      case xml::Edit::Kind::kRemoveSubtree:
        out->push_back(edit.parent);
        out->push_back(edit.node);
        for (const xml::Node& n : edit.removed.nodes) out->push_back(n.id);
        break;
      case xml::Edit::Kind::kSetText:
        out->push_back(edit.node);
        break;
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::optional<Conflict> ConflictTable::CheckEffect(const xml::Document& doc,
                                                   const OpEffect& effect,
                                                   uint64_t writer,
                                                   uint64_t snapshot) const {
  std::vector<xml::NodeId> footprint;
  FootprintOf(effect, &footprint);
  std::optional<Conflict> found;
  for (xml::NodeId id : footprint) {
    if (found.has_value()) break;
    doc.ForEachWriteSince(
        id, 0, [&](uint64_t version, uint64_t rec_writer) {
          if (found.has_value()) return;
          if (rec_writer == writer || rec_writer == 0) return;
          auto aborted = aborted_.find(rec_writer);
          if (aborted != aborted_.end() && aborted->second > snapshot) {
            return;  // written and undone entirely after the snapshot
          }
          // (a) committed-after-my-snapshot, or (b) still-active (dirty
          // write) — either way first-writer-wins says we lose.
          if (version > snapshot || IsActive(rec_writer)) {
            found = Conflict{id, rec_writer, version};
          }
        });
  }
  return found;
}

}  // namespace axmlx::ops
