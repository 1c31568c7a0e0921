#include "checks.h"

#include "xml/builder.h"

namespace e2e {

using axmlx::xml::Document;
using axmlx::xml::Node;
using axmlx::xml::NodeId;

std::vector<std::string> EntryTxns(const Document& doc) {
  std::vector<std::string> out;
  doc.Walk(doc.root(), [&out](const Node& n) {
    if (n.is_element() && n.name == "entry") {
      const std::string* txn = n.FindAttribute("txn");
      out.push_back(txn != nullptr ? *txn : std::string("?"));
    }
    return true;
  });
  return out;
}

namespace {

std::vector<std::string> Expand(const std::vector<std::string>& txns,
                                int ops_per_service) {
  std::vector<std::string> out;
  out.reserve(txns.size() * static_cast<size_t>(ops_per_service));
  for (const std::string& t : txns) {
    for (int i = 0; i < ops_per_service; ++i) out.push_back(t);
  }
  return out;
}

std::string FirstDifference(const std::vector<std::string>& got,
                            const std::vector<std::string>& want) {
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  return "entry " + std::to_string(i) + " is " +
         (i < got.size() ? got[i] : std::string("<end>")) + ", expected " +
         (i < want.size() ? want[i] : std::string("<end>")) + " (" +
         std::to_string(got.size()) + " entries, expected " +
         std::to_string(want.size()) + ")";
}

}  // namespace

std::string CheckCommittedEntries(const std::vector<std::string>& entries,
                                  const std::vector<std::string>& committed,
                                  int ops_per_service) {
  const std::vector<std::string> want = Expand(committed, ops_per_service);
  if (entries == want) return std::string();
  return FirstDifference(entries, want);
}

std::string CheckDecision(Expected expected, bool decided, bool committed) {
  if (!decided) return "transaction ended undecided";
  if (expected == Expected::kAbort && committed) {
    return "transaction with a scheduled service fault committed";
  }
  if (expected == Expected::kCommit && !committed) {
    return "transaction aborted though no fault was scheduled or injected";
  }
  return std::string();
}

std::string CheckReplay(const std::string& live, const std::string& replayed) {
  if (live == replayed) return std::string();
  size_t i = 0;
  while (i < live.size() && i < replayed.size() && live[i] == replayed[i]) ++i;
  return "WAL replay differs from the live document at byte " +
         std::to_string(i) + " (live " + std::to_string(live.size()) +
         " bytes, replayed " + std::to_string(replayed.size()) + ")";
}

Inventory ReadInventory(const Document& doc) {
  Inventory out;
  const Node* root = doc.Find(doc.root());
  for (NodeId sid : root->children) {
    const Node* s = doc.Find(sid);
    if (s == nullptr || !s->is_element() || s->name != "section") continue;
    Section section;
    const std::string* id = s->FindAttribute("id");
    section.id = id != nullptr ? *id : std::string();
    for (NodeId iid : s->children) {
      const Node* item = doc.Find(iid);
      if (item == nullptr || !item->is_element() || item->name != "item") {
        continue;
      }
      Record r;
      NodeId name = axmlx::xml::FirstChildElement(doc, iid, "name");
      NodeId price = axmlx::xml::FirstChildElement(doc, iid, "price");
      r.key = name != axmlx::xml::kNullNode ? doc.TextContent(name) : "";
      r.price = price != axmlx::xml::kNullNode ? doc.TextContent(price) : "";
      section.items.push_back(std::move(r));
    }
    out.push_back(std::move(section));
  }
  return out;
}

std::string CheckInventory(const Inventory& doc, const Inventory& model) {
  if (doc.size() != model.size()) {
    return "document has " + std::to_string(doc.size()) +
           " sections, model " + std::to_string(model.size());
  }
  for (size_t s = 0; s < doc.size(); ++s) {
    if (doc[s] == model[s]) continue;
    const Section& a = doc[s];
    const Section& b = model[s];
    size_t i = 0;
    while (i < a.items.size() && i < b.items.size() &&
           a.items[i] == b.items[i]) {
      ++i;
    }
    auto show = [](const std::vector<Record>& v, size_t k) {
      return k < v.size() ? v[k].key + "=" + v[k].price : std::string("<end>");
    };
    return "section " + b.id + " item " + std::to_string(i) + ": document " +
           show(a.items, i) + ", model " + show(b.items, i);
  }
  return std::string();
}

std::string CheckKeyedRead(const std::string& key, const std::string& got,
                           const std::string& expected) {
  if (got == expected) return std::string();
  return "keyed read of " + key + " returned '" + got + "', model has '" +
         expected + "'";
}

std::string CheckRestored(const std::string& what, const std::string& now,
                          const std::string& before) {
  if (now == before) return std::string();
  return what + " reads '" + now + "' after abort, was '" + before + "'";
}

}  // namespace e2e
