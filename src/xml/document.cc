#include "xml/document.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/strings.h"

namespace axmlx::xml {

namespace {

/// Well-known AXML names, interned by every document in this fixed order so
/// the kNameAxml* constants in node.h hold everywhere.
constexpr std::string_view kReservedNames[kNumReservedNames] = {
    "axml:sc", "axml:params", "axml:catch", "axml:catchAll", "axml:retry"};

/// Name-table capacity reserved at construction: the reserved names plus
/// room for a small fragment's own tags before the tables regrow.
constexpr size_t kInitialNames = 16;

/// The reserved id of `name`, or kNoName. The reserved names resolve
/// against this fixed table rather than a document's hash map, so a new
/// document makes no hash insert for them.
NameId ReservedNameId(std::string_view name) {
  if (!name.starts_with("axml:")) return kNoName;
  for (NameId id = 0; id < kNumReservedNames; ++id) {
    if (name == kReservedNames[id]) return id;
  }
  return kNoName;
}

const std::string kEmptyName;

}  // namespace

Document::Document(const std::string& root_name) {
  names_.reserve(kInitialNames);
  name_index_.reserve(kInitialNames);
  names_.assign(std::begin(kReservedNames), std::end(kReservedNames));
  name_index_.resize(kNumReservedNames);
  root_ = CreateElement(root_name);
}

std::unique_ptr<Document> Document::Clone() const {
  std::unique_ptr<Document> copy(new Document(RawTag{}));
  copy->next_id_ = next_id_;
  copy->root_ = root_;
  copy->live_nodes_ = live_nodes_;
  copy->pages_.reserve(pages_.size());
  for (const auto& page : pages_) {
    // Copy only the constructed slots, into a page of full capacity so the
    // copy's later bump allocations never reallocate it.
    std::vector<Node>& new_page = copy->pages_.emplace_back();
    new_page.reserve(kPageSize);
    new_page.insert(new_page.end(), page.begin(), page.end());
  }
  copy->slots_used_ = slots_used_;
  copy->free_slots_ = free_slots_;
  copy->slot_gen_ = slot_gen_;
  copy->slot_of_id_ = slot_of_id_;
  copy->gen_of_id_ = gen_of_id_;
  copy->names_ = names_;
  copy->name_ids_ = name_ids_;
  copy->name_index_ = name_index_;
  copy->versioning_enabled_ = versioning_enabled_;
  copy->version_ = version_;
  copy->writer_ = writer_;
  copy->history_ = history_;
  copy->storage_stats_ = storage_stats_;
  return copy;
}

void Document::RecordVersion(NodeId id) {
  if (!versioning_enabled_) return;
  VersionRecord rec;
  rec.version = ++version_;
  rec.writer = writer_;
  const Node* n = Find(id);
  rec.live = n != nullptr;
  if (n != nullptr) rec.state = *n;
  history_[id].push_back(std::move(rec));
  ++storage_stats_.versions_recorded;
}

const Node* Document::FindVersioned(NodeId id, const ReadView& view) const {
  const Node* live = Find(id);
  auto it = history_.find(id);
  if (it == history_.end()) return live;
  const std::vector<VersionRecord>& chain = it->second;
  // Chains are append-ordered by version; the oldest record newer than the
  // snapshot holds the node's state *at* the snapshot (it is the undo image
  // of the first post-snapshot mutation).
  auto rec = std::upper_bound(
      chain.begin(), chain.end(), view.version,
      [](uint64_t v, const VersionRecord& r) { return v < r.version; });
  if (rec == chain.end()) return live;  // unchanged since the snapshot
  // Read-your-own-writes: if the viewer authored any post-snapshot change,
  // the live state is its state. Conflict detection keeps chains
  // single-writer past a snapshot, so mixed chains only occur transiently
  // while a loser is being rolled back.
  if (view.writer != 0) {
    for (auto r = rec; r != chain.end(); ++r) {
      if (r->writer == view.writer) return live;
    }
  }
  return rec->live ? &rec->state : nullptr;
}

void Document::ForEachWriteSince(
    NodeId id, uint64_t since,
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  auto it = history_.find(id);
  if (it == history_.end()) return;
  for (const VersionRecord& rec : it->second) {
    if (rec.version > since) fn(rec.version, rec.writer);
  }
}

void Document::AppendTextContentAt(NodeId id, const ReadView& view,
                                   std::string* out) const {
  if (ReadsLive(view)) {
    AppendTextContent(id, out);
    return;
  }
  const Node* n = FindAt(id, view);
  if (n == nullptr) return;
  if (n->is_text()) {
    out->append(n->text);
    return;
  }
  if (n->type == NodeType::kComment) return;
  for (NodeId c : n->children) AppendTextContentAt(c, view, out);
}

void Document::PruneVersionsBefore(uint64_t min_version) {
  // Order-insensitive: each chain is pruned independently and the stats
  // fold commutes, so hash order cannot leak into observable state.
  // lint:allow(R7)
  for (auto it = history_.begin(); it != history_.end();) {
    std::vector<VersionRecord>& chain = it->second;
    auto keep = std::upper_bound(
        chain.begin(), chain.end(), min_version,
        [](uint64_t v, const VersionRecord& r) { return v < r.version; });
    storage_stats_.versions_pruned +=
        static_cast<int64_t>(keep - chain.begin());
    chain.erase(chain.begin(), keep);
    it = chain.empty() ? history_.erase(it) : std::next(it);
  }
}

size_t Document::VersionRecordCount() const {
  size_t count = 0;
  // Order-insensitive: summing chain sizes commutes. lint:allow(R7)
  for (const auto& [id, chain] : history_) count += chain.size();
  return count;
}

NameId Document::InternName(std::string_view name) {
  if (NameId reserved = ReservedNameId(name); reserved != kNoName) {
    return reserved;
  }
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  NameId id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  name_index_.emplace_back();
  return id;
}

NameId Document::FindNameId(std::string_view name) const {
  if (NameId reserved = ReservedNameId(name); reserved != kNoName) {
    return reserved;
  }
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? kNoName : it->second;
}

const std::string& Document::NameOf(NameId name_id) const {
  if (name_id >= names_.size()) return kEmptyName;
  return names_[name_id];
}

uint32_t Document::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ++storage_stats_.slots_reused;
    return slot;
  }
  if (slots_used_ == pages_.size() * kPageSize) {
    pages_.emplace_back().reserve(kPageSize);
    ++storage_stats_.pages_allocated;
  }
  // Within the reserved capacity: never reallocates, so Node* stay put.
  pages_.back().emplace_back();
  uint32_t slot = slots_used_++;
  slot_gen_.push_back(0);
  return slot;
}

void Document::MapIdToSlot(NodeId id, uint32_t slot) {
  if (id >= slot_of_id_.size()) {
    slot_of_id_.resize(id + 1, kInvalidSlot);
    gen_of_id_.resize(id + 1, 0);
  }
  slot_of_id_[id] = slot;
  gen_of_id_[id] = slot_gen_[slot];
  if (id >= next_id_) next_id_ = id + 1;
  ++live_nodes_;
}

NodeId Document::NewNode(NodeType type) {
  uint32_t slot = AllocSlot();
  NodeId id = next_id_;
  RecordVersion(id);  // "absent" undo image: the id did not exist before
  MapIdToSlot(id, slot);
  Node& node = NodeAt(slot);
  node.id = id;
  node.type = type;
  node.parent = kNullNode;
  ++storage_stats_.nodes_allocated;
  return id;
}

// Slot recycling, not a logical mutation: every caller (RemoveSubtree /
// DestroySubtree / RollbackAll) records the version entry for `id` before
// freeing, and the undo image restores the slot wholesale. lint:allow(R6)
void Document::FreeNode(NodeId id) {
  uint32_t slot = slot_of_id_[id];
  Node& node = NodeAt(slot);
  // Keep the tag index tight under create/destroy churn: drop this node's
  // entry when it sits at its bucket's tail (the common LIFO case), plus
  // any already-dead ids that pop exposes. Entries elsewhere in the bucket
  // stay until CollectElementsNamed's sweep.
  if (node.is_element() && node.name_id != kNoName &&
      node.name_id < name_index_.size()) {
    std::vector<NodeId>& bucket = name_index_[node.name_id];
    if (!bucket.empty() && bucket.back() == id) {
      bucket.pop_back();
      while (!bucket.empty() && Find(bucket.back()) == nullptr) {
        bucket.pop_back();
        ++storage_stats_.index_entries_swept;
      }
    }
  }
  // clear() keeps string/vector capacity, so a recycled slot serves its
  // next node without fresh heap allocations.
  node.id = kNullNode;
  node.parent = kNullNode;
  node.name.clear();
  node.name_id = kNoName;
  node.text.clear();
  node.attributes.clear();
  node.children.clear();
  ++slot_gen_[slot];
  slot_of_id_[id] = kInvalidSlot;
  free_slots_.push_back(slot);
  ++storage_stats_.nodes_freed;
  --live_nodes_;
}

NodeId Document::CreateElement(const std::string& name) {
  NameId name_id = InternName(name);
  NodeId id = NewNode(NodeType::kElement);
  Node* node = FindMutable(id);
  node->name = name;
  node->name_id = name_id;
  name_index_[name_id].push_back(id);
  return id;
}

NodeId Document::CreateText(const std::string& text) {
  NodeId id = NewNode(NodeType::kText);
  FindMutable(id)->text = text;
  return id;
}

NodeId Document::CreateComment(const std::string& text) {
  NodeId id = NewNode(NodeType::kComment);
  FindMutable(id)->text = text;
  return id;
}

Status Document::AppendChild(NodeId parent, NodeId child) {
  Node* p = FindMutable(parent);
  if (p == nullptr) return NotFound("AppendChild: unknown parent");
  return InsertAt(parent, p->children.size(), child);
}

Status Document::InsertAt(NodeId parent, size_t index, NodeId child) {
  Node* p = FindMutable(parent);
  Node* c = FindMutable(child);
  if (p == nullptr) return NotFound("InsertAt: unknown parent");
  if (c == nullptr) return NotFound("InsertAt: unknown child");
  if (!p->is_element()) {
    return InvalidArgument("InsertAt: parent is not an element");
  }
  if (c->parent != kNullNode) {
    return FailedPrecondition("InsertAt: child is already attached");
  }
  if (index > p->children.size()) {
    return OutOfRange("InsertAt: index beyond end of children");
  }
  // Reject cycles: `parent` must not live inside `child`'s subtree.
  for (NodeId cur = parent; cur != kNullNode; cur = Find(cur)->parent) {
    if (cur == child) {
      return InvalidArgument("InsertAt: would create a cycle");
    }
  }
  RecordVersion(parent);
  RecordVersion(child);
  // RecordVersion may rehash history_ but never touches the slab, so the
  // Node pointers above stay valid.
  p->children.insert(p->children.begin() + static_cast<ptrdiff_t>(index),
                     child);
  c->parent = parent;
  return Status::Ok();
}

Result<Document::RemovedInfo> Document::RemoveSubtree(NodeId id) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("RemoveSubtree: unknown node");
  if (id == root_) {
    return FailedPrecondition("RemoveSubtree: cannot remove the root");
  }
  RemovedInfo info;
  info.parent = n->parent;
  if (n->parent != kNullNode) {
    RecordVersion(n->parent);
    Node* p = FindMutable(n->parent);
    auto it = std::find(p->children.begin(), p->children.end(), id);
    info.index = static_cast<size_t>(it - p->children.begin());
    p->children.erase(it);
    n->parent = kNullNode;
  }
  DestroySubtree(id);
  return info;
}

void Document::DestroySubtree(NodeId id) {
  // Iterative destruction; FreeNode clears the child list, so children are
  // pushed onto the work stack first.
  std::vector<NodeId>& stack = walk_scratch_;
  stack.clear();
  stack.push_back(id);
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    Node* n = FindMutable(cur);
    if (n == nullptr) continue;
    for (NodeId c : n->children) stack.push_back(c);
    RecordVersion(cur);
    FreeNode(cur);
  }
}

Status Document::SetText(NodeId id, const std::string& text) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("SetText: unknown node");
  if (n->is_element()) return InvalidArgument("SetText: node is an element");
  RecordVersion(id);
  n->text = text;
  return Status::Ok();
}

Status Document::RenameElement(NodeId id, const std::string& name) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("RenameElement: unknown node");
  if (!n->is_element()) {
    return InvalidArgument("RenameElement: node is not an element");
  }
  NameId name_id = InternName(name);
  if (name_id == n->name_id) return Status::Ok();
  RecordVersion(id);
  // The entry under the old name goes stale; CollectElementsNamed filters
  // and sweeps it on the next lookup.
  n->name = name;
  n->name_id = name_id;
  name_index_[name_id].push_back(id);
  return Status::Ok();
}

Status Document::SetAttribute(NodeId id, const std::string& key,
                              const std::string& value) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("SetAttribute: unknown node");
  if (!n->is_element()) {
    return InvalidArgument("SetAttribute: node is not an element");
  }
  RecordVersion(id);
  for (auto& [k, v] : n->attributes) {
    if (k == key) {
      v = value;
      return Status::Ok();
    }
  }
  n->attributes.emplace_back(key, value);
  return Status::Ok();
}

NodeId Document::ImportRec(const Document& src, NodeId src_id) {
  const Node* s = src.Find(src_id);
  NodeId id;
  switch (s->type) {
    case NodeType::kElement:
      id = CreateElement(s->name);
      break;
    case NodeType::kText:
      id = CreateText(s->text);
      break;
    case NodeType::kComment:
      id = CreateComment(s->text);
      break;
    default:
      id = CreateElement(s->name);
  }
  Node* d = FindMutable(id);
  d->attributes = s->attributes;
  for (NodeId c : s->children) {
    NodeId cc = ImportRec(src, c);
    FindMutable(cc)->parent = id;
    d->children.push_back(cc);
  }
  return id;
}

Result<NodeId> Document::ImportSubtree(const Document& src, NodeId src_id) {
  if (src.Find(src_id) == nullptr) {
    return NotFound("ImportSubtree: unknown source node");
  }
  return ImportRec(src, src_id);
}

Result<std::unique_ptr<Document>> Document::ExtractFragment(NodeId id) const {
  if (Find(id) == nullptr) return NotFound("ExtractFragment: unknown node");
  auto frag = std::make_unique<Document>("fragment");
  AXMLX_ASSIGN_OR_RETURN(NodeId copy, frag->ImportSubtree(*this, id));
  AXMLX_RETURN_IF_ERROR(frag->AppendChild(frag->root(), copy));
  return frag;
}

Status Document::RestoreSubtree(const std::vector<Node>& nodes,
                                NodeId subtree_root, NodeId parent,
                                size_t index) {
  Node* p = FindMutable(parent);
  if (p == nullptr) return NotFound("RestoreSubtree: unknown parent");
  if (!p->is_element()) {
    return InvalidArgument("RestoreSubtree: parent is not an element");
  }
  if (index > p->children.size()) {
    return OutOfRange("RestoreSubtree: index beyond end of children");
  }
  for (const Node& n : nodes) {
    if (Contains(n.id)) {
      return AlreadyExists("RestoreSubtree: node id is live");
    }
  }
  RecordVersion(parent);
  for (const Node& n : nodes) {
    RecordVersion(n.id);  // "absent": the id was free before the restore
    uint32_t slot = AllocSlot();
    Node& stored = NodeAt(slot);
    stored = n;
    // Re-intern from the spelling: the record may come from a document with
    // a different name table (diff replay between replicas).
    if (stored.is_element()) {
      stored.name_id = InternName(stored.name);
      name_index_[stored.name_id].push_back(stored.id);
    } else {
      stored.name_id = kNoName;
    }
    MapIdToSlot(n.id, slot);
    ++storage_stats_.nodes_allocated;
  }
  Node* r = FindMutable(subtree_root);
  if (r == nullptr) return Internal("RestoreSubtree: root not among nodes");
  r->parent = parent;
  p->children.insert(p->children.begin() + static_cast<ptrdiff_t>(index),
                     subtree_root);
  return Status::Ok();
}

void Document::CollectElementsNamed(NameId name_id,
                                    std::vector<NodeId>* out) const {
  if (name_id >= name_index_.size()) return;
  std::vector<NodeId>& bucket = name_index_[name_id];
  if (concurrent_reads_) {
    // Filter without compacting: stale entries stay until the next
    // single-threaded lookup sweeps them.
    for (NodeId id : bucket) {
      const Node* n = Find(id);
      if (n != nullptr && n->name_id == name_id) out->push_back(id);
    }
    return;
  }
  // Filter + compact in place: survivors are the live elements still named
  // `name_id`; everything else (destroyed or renamed) is swept.
  size_t w = 0;
  for (NodeId id : bucket) {
    const Node* n = Find(id);
    if (n == nullptr || n->name_id != name_id) continue;
    bucket[w++] = id;
    out->push_back(id);
  }
  storage_stats_.index_entries_swept +=
      static_cast<int64_t>(bucket.size() - w);
  bucket.resize(w);
}

size_t Document::SubtreeSize(NodeId id) const {
  if (Find(id) == nullptr) return 0;
  size_t count = 0;
  std::vector<NodeId> local_stack;
  std::vector<NodeId>& stack = concurrent_reads_ ? local_stack : walk_scratch_;
  stack.clear();
  stack.push_back(id);
  while (!stack.empty()) {
    const Node* n = Find(stack.back());
    stack.pop_back();
    if (n == nullptr) continue;
    ++count;
    for (NodeId c : n->children) stack.push_back(c);
  }
  return count;
}

size_t Document::IndexInParent(NodeId id) const {
  const Node* n = Find(id);
  if (n == nullptr || n->parent == kNullNode) return kNpos;
  const Node* p = Find(n->parent);
  auto it = std::find(p->children.begin(), p->children.end(), id);
  return it == p->children.end()
             ? kNpos
             : static_cast<size_t>(it - p->children.begin());
}

void Document::AppendTextContent(NodeId id, std::string* out) const {
  const Node* start = Find(id);
  if (start == nullptr) return;
  if (start->is_text()) {
    out->append(start->text);
    return;
  }
  // Fast path for leaf elements (all children are text) — the dominant
  // shape for scalar fields like <rank>7</rank>.
  bool flat = true;
  for (NodeId c : start->children) {
    const Node* child = Find(c);
    if (child != nullptr && !child->is_text()) {
      flat = false;
      break;
    }
  }
  if (flat) {
    for (NodeId c : start->children) {
      const Node* child = Find(c);
      if (child != nullptr) out->append(child->text);
    }
    return;
  }
  // Iterative pre-order with a reversed-children stack so text concatenates
  // in document order without per-node callback overhead.
  std::vector<NodeId> local_stack;
  std::vector<NodeId>& stack = concurrent_reads_ ? local_stack : walk_scratch_;
  stack.clear();
  stack.push_back(id);
  while (!stack.empty()) {
    const Node* n = Find(stack.back());
    stack.pop_back();
    if (n == nullptr) continue;
    if (n->is_text()) {
      out->append(n->text);
      continue;
    }
    for (size_t i = n->children.size(); i > 0; --i) {
      stack.push_back(n->children[i - 1]);
    }
  }
}

std::string Document::TextContent(NodeId id) const {
  std::string out;
  AppendTextContent(id, &out);
  return out;
}

void Document::Walk(NodeId id,
                    const std::function<bool(const Node&)>& fn) const {
  const Node* n = Find(id);
  if (n == nullptr) return;
  if (!fn(*n)) return;
  for (NodeId c : n->children) Walk(c, fn);
}

std::string Document::PathOf(NodeId id) const {
  const Node* n = Find(id);
  if (n == nullptr) return "<unknown>";
  if (n->parent == kNullNode) return "/" + n->name;
  std::ostringstream os;
  os << PathOf(n->parent) << "/";
  if (n->is_element()) {
    os << n->name;
  } else {
    os << "#text";
  }
  size_t idx = IndexInParent(id);
  if (idx != kNpos) os << "[" << idx << "]";
  return os.str();
}

void Document::SerializeNode(NodeId id, bool pretty, int depth,
                             std::string* out) const {
  const Node* n = Find(id);
  if (n == nullptr) return;
  std::string indent = pretty ? std::string(static_cast<size_t>(depth) * 2, ' ')
                              : std::string();
  switch (n->type) {
    case NodeType::kText:
      if (pretty) *out += indent;
      *out += XmlEscape(n->text);
      if (pretty) *out += "\n";
      return;
    case NodeType::kComment:
      if (pretty) *out += indent;
      out->append("<!--");
      out->append(n->text);
      out->append("-->");
      if (pretty) *out += "\n";
      return;
    case NodeType::kElement:
      break;
  }
  if (pretty) *out += indent;
  out->push_back('<');
  out->append(n->name);
  for (const auto& [k, v] : n->attributes) {
    out->push_back(' ');
    out->append(k);
    out->append("=\"");
    out->append(XmlEscape(v));
    out->push_back('"');
  }
  if (n->children.empty()) {
    out->append("/>");
    if (pretty) *out += "\n";
    return;
  }
  out->push_back('>');
  if (pretty) *out += "\n";
  for (NodeId c : n->children) SerializeNode(c, pretty, depth + 1, out);
  if (pretty) *out += indent;
  out->append("</");
  out->append(n->name);
  out->push_back('>');
  if (pretty) *out += "\n";
}

std::string Document::Serialize(NodeId id, bool pretty) const {
  if (id == kNullNode) id = root_;
  std::string out;
  SerializeNode(id, pretty, 0, &out);
  return out;
}

bool Document::SubtreeEquals(const Document& a, NodeId a_id, const Document& b,
                             NodeId b_id) {
  const Node* na = a.Find(a_id);
  const Node* nb = b.Find(b_id);
  if (na == nullptr || nb == nullptr) return na == nb;
  if (na->type != nb->type) return false;
  if (na->is_element()) {
    // Cross-document comparison: spellings, not per-document NameIds.
    if (na->name != nb->name) return false;
    if (na->attributes != nb->attributes) return false;
    // Compare children skipping comments on both sides.
    std::vector<NodeId> ca, cb;
    for (NodeId c : na->children) {
      if (a.Find(c)->type != NodeType::kComment) ca.push_back(c);
    }
    for (NodeId c : nb->children) {
      if (b.Find(c)->type != NodeType::kComment) cb.push_back(c);
    }
    if (ca.size() != cb.size()) return false;
    for (size_t i = 0; i < ca.size(); ++i) {
      if (!SubtreeEquals(a, ca[i], b, cb[i])) return false;
    }
    return true;
  }
  return na->text == nb->text;
}

}  // namespace axmlx::xml
