#include "engine/btree.h"

#include <vector>

#include "common/bytes.h"
#include "storage/slotted_page.h"

namespace ipa::engine {

namespace {

// Node body layout, starting at kPageHeaderSize within the page:
//   u8  is_leaf | u8 pad | u16 count | u32 pad | u64 link | entries...
// `link` is the next-leaf pointer on leaves and the leftmost child on
// internal nodes. Entries are 16-byte (u64, u64) pairs: (key, value) on
// leaves, (key, child-for-keys>=key) on internal nodes, sorted by key.
constexpr uint32_t kNodeBase = storage::kPageHeaderSize;
constexpr uint32_t kOffIsLeaf = kNodeBase + 0;
constexpr uint32_t kOffCount = kNodeBase + 2;
constexpr uint32_t kOffLink = kNodeBase + 8;
constexpr uint32_t kEntriesBase = kNodeBase + 16;
constexpr uint32_t kEntrySize = 16;

/// A node over `Byte` = const uint8_t (a fixed frame's data(): reads only)
/// or uint8_t (BufferPool::WillModify()'s pointer: reads and writes). The
/// setters compile only for the second.
template <typename Byte>
struct BasicNodeView {
  Byte* p;
  uint32_t capacity;

  BasicNodeView(Byte* page, uint32_t page_size) : p(page) {
    storage::ConstSlottedPage view(page, page_size);
    capacity = (view.delta_off() - kEntriesBase) / kEntrySize;
  }

  bool is_leaf() const { return p[kOffIsLeaf] != 0; }
  void set_leaf(bool v) { p[kOffIsLeaf] = v ? 1 : 0; }
  uint16_t count() const { return DecodeU16(p + kOffCount); }
  void set_count(uint16_t c) { EncodeU16(p + kOffCount, c); }
  uint64_t link() const { return DecodeU64(p + kOffLink); }
  void set_link(uint64_t v) { EncodeU64(p + kOffLink, v); }

  uint64_t key(uint16_t i) const {
    return DecodeU64(p + kEntriesBase + i * kEntrySize);
  }
  uint64_t val(uint16_t i) const {
    return DecodeU64(p + kEntriesBase + i * kEntrySize + 8);
  }
  void set(uint16_t i, uint64_t k, uint64_t v) {
    EncodeU64(p + kEntriesBase + i * kEntrySize, k);
    EncodeU64(p + kEntriesBase + i * kEntrySize + 8, v);
  }

  /// First index i with key(i) >= k (lower bound).
  uint16_t LowerBound(uint64_t k) const {
    uint16_t lo = 0, hi = count();
    while (lo < hi) {
      uint16_t mid = (lo + hi) / 2;
      if (key(mid) < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child page for key `k` on an internal node.
  uint64_t ChildFor(uint64_t k) const {
    uint16_t i = LowerBound(k + 1);  // last separator <= k
    return i == 0 ? link() : val(i - 1);
  }

  void InsertAt(uint16_t i, uint64_t k, uint64_t v) {
    uint16_t c = count();
    std::memmove(p + kEntriesBase + (i + 1) * kEntrySize,
                 p + kEntriesBase + i * kEntrySize,
                 static_cast<size_t>(c - i) * kEntrySize);
    set(i, k, v);
    set_count(static_cast<uint16_t>(c + 1));
  }

  void RemoveAt(uint16_t i) {
    uint16_t c = count();
    std::memmove(p + kEntriesBase + i * kEntrySize,
                 p + kEntriesBase + (i + 1) * kEntrySize,
                 static_cast<size_t>(c - i - 1) * kEntrySize);
    set_count(static_cast<uint16_t>(c - 1));
  }
};

using NodeReader = BasicNodeView<const uint8_t>;
using NodeView = BasicNodeView<uint8_t>;

}  // namespace

Result<PageId> Btree::NewNode(bool leaf) {
  IPA_ASSIGN_OR_RETURN(PageId id, db_->AllocateIndexPage(table_));
  IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, db_->buffer_pool().Fix(id));
  NodeView node(db_->buffer_pool().WillModify(frame), db_->config().page_size);
  node.set_leaf(leaf);
  node.set_count(0);
  node.set_link(PageId().raw);
  db_->buffer_pool().Unfix(frame, true);
  return id;
}

Result<Btree> Btree::Create(Database* db, const std::string& name,
                            TablespaceId ts) {
  IPA_ASSIGN_OR_RETURN(TableId table, db->CreateTable(name, ts));
  Btree tree(db, table);
  IPA_ASSIGN_OR_RETURN(tree.root_, tree.NewNode(/*leaf=*/true));
  return tree;
}

Status Btree::InsertRec(PageId node_id, uint64_t key, uint64_t value,
                        uint64_t pages_above, SplitResult* out) {
  out->split = false;
  IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, db_->buffer_pool().Fix(node_id));
  NodeReader reader(frame->data(), db_->config().page_size);
  // A node splits when one more entry fills it.
  uint64_t pages_if_split = reader.count() + 1u >= reader.capacity ? 1 + pages_above : 0;

  if (!reader.is_leaf()) {
    PageId child;
    child.raw = reader.ChildFor(key);
    db_->buffer_pool().Unfix(frame, false);

    SplitResult child_split;
    IPA_RETURN_NOT_OK(InsertRec(child, key, value, pages_if_split, &child_split));
    if (!child_split.split) return Status::OK();

    // Re-fix: insert the new separator.
    IPA_ASSIGN_OR_RETURN(frame, db_->buffer_pool().Fix(node_id));
    NodeView parent(db_->buffer_pool().WillModify(frame), db_->config().page_size);
    uint16_t pos = parent.LowerBound(child_split.sep_key);
    parent.InsertAt(pos, child_split.sep_key, child_split.right.raw);

    if (parent.count() < parent.capacity) {
      db_->buffer_pool().Unfix(frame, true);
      return Status::OK();
    }
    // Split the internal node: middle key moves up. A node left full would
    // overflow on its next insert, so a failed split takes the entry back.
    auto right_id = NewNode(/*leaf=*/false);
    if (!right_id.ok()) {
      parent.RemoveAt(pos);
      db_->buffer_pool().Unfix(frame, true);
      return right_id.status();
    }
    auto rf = db_->buffer_pool().Fix(right_id.value());
    if (!rf.ok()) {
      parent.RemoveAt(pos);
      db_->buffer_pool().Unfix(frame, true);
      return rf.status();
    }
    NodeView right(db_->buffer_pool().WillModify(rf.value()), db_->config().page_size);
    uint16_t total = parent.count();
    uint16_t mid = total / 2;
    uint64_t up_key = parent.key(mid);
    right.set_link(parent.val(mid));  // child for keys >= up_key
    uint16_t moved = 0;
    for (uint16_t i = mid + 1; i < total; i++, moved++) {
      right.set(moved, parent.key(i), parent.val(i));
    }
    right.set_count(moved);
    parent.set_count(mid);
    db_->buffer_pool().Unfix(rf.value(), true);
    db_->buffer_pool().Unfix(frame, true);
    out->split = true;
    out->sep_key = up_key;
    out->right = right_id.value();
    return Status::OK();
  }

  // Leaf.
  uint16_t pos = reader.LowerBound(key);
  bool overwrite = pos < reader.count() && reader.key(pos) == key;
  if (!overwrite && pages_if_split > db_->pages_left(table_)) {
    db_->buffer_pool().Unfix(frame, false);
    return Status::OutOfSpace("index '" + db_->table_name(table_) +
                              "': no pages left for the split");
  }
  NodeView node(db_->buffer_pool().WillModify(frame), db_->config().page_size);
  if (overwrite) {
    node.set(pos, key, value);
    db_->buffer_pool().Unfix(frame, true);
    return Status::OK();
  }
  node.InsertAt(pos, key, value);
  if (node.count() < node.capacity) {
    db_->buffer_pool().Unfix(frame, true);
    return Status::OK();
  }
  // Split the leaf; a failed split takes the entry back, as above.
  auto right_id = NewNode(/*leaf=*/true);
  if (!right_id.ok()) {
    node.RemoveAt(pos);
    db_->buffer_pool().Unfix(frame, true);
    return right_id.status();
  }
  auto rf = db_->buffer_pool().Fix(right_id.value());
  if (!rf.ok()) {
    node.RemoveAt(pos);
    db_->buffer_pool().Unfix(frame, true);
    return rf.status();
  }
  NodeView right(db_->buffer_pool().WillModify(rf.value()), db_->config().page_size);
  uint16_t total = node.count();
  uint16_t mid = total / 2;
  uint16_t moved = 0;
  for (uint16_t i = mid; i < total; i++, moved++) {
    right.set(moved, node.key(i), node.val(i));
  }
  right.set_count(moved);
  right.set_link(node.link());
  node.set_count(mid);
  node.set_link(right_id.value().raw);
  out->split = true;
  out->sep_key = right.key(0);
  out->right = right_id.value();
  db_->buffer_pool().Unfix(rf.value(), true);
  db_->buffer_pool().Unfix(frame, true);
  return Status::OK();
}

Status Btree::Insert(uint64_t key, uint64_t value) {
  SplitResult split;
  IPA_RETURN_NOT_OK(InsertRec(root_, key, value, /*pages_above=*/1, &split));
  if (!split.split) return Status::OK();
  // Grow a new root.
  IPA_ASSIGN_OR_RETURN(PageId new_root, NewNode(/*leaf=*/false));
  IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame,
                       db_->buffer_pool().Fix(new_root));
  NodeView root(db_->buffer_pool().WillModify(frame), db_->config().page_size);
  root.set_link(root_.raw);
  root.InsertAt(0, split.sep_key, split.right.raw);
  db_->buffer_pool().Unfix(frame, true);
  root_ = new_root;
  height_++;
  return Status::OK();
}

Result<uint64_t> Btree::Lookup(uint64_t key) {
  PageId cur = root_;
  for (;;) {
    IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, db_->buffer_pool().Fix(cur));
    NodeReader node(frame->data(), db_->config().page_size);
    if (!node.is_leaf()) {
      cur.raw = node.ChildFor(key);
      db_->buffer_pool().Unfix(frame, false);
      continue;
    }
    uint16_t pos = node.LowerBound(key);
    bool hit = pos < node.count() && node.key(pos) == key;
    uint64_t value = hit ? node.val(pos) : 0;
    db_->buffer_pool().Unfix(frame, false);
    if (!hit) return Status::NotFound("key not in index");
    return value;
  }
}

Status Btree::Remove(uint64_t key) {
  PageId cur = root_;
  for (;;) {
    IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, db_->buffer_pool().Fix(cur));
    NodeReader node(frame->data(), db_->config().page_size);
    if (!node.is_leaf()) {
      cur.raw = node.ChildFor(key);
      db_->buffer_pool().Unfix(frame, false);
      continue;
    }
    uint16_t pos = node.LowerBound(key);
    if (pos >= node.count() || node.key(pos) != key) {
      db_->buffer_pool().Unfix(frame, false);
      return Status::NotFound("key not in index");
    }
    NodeView(db_->buffer_pool().WillModify(frame), db_->config().page_size).RemoveAt(pos);
    db_->buffer_pool().Unfix(frame, true);
    return Status::OK();
  }
}

Status Btree::Scan(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, uint64_t)>& fn) {
  // Descend to the leaf containing `lo`.
  PageId cur = root_;
  for (;;) {
    IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, db_->buffer_pool().Fix(cur));
    NodeReader node(frame->data(), db_->config().page_size);
    if (!node.is_leaf()) {
      cur.raw = node.ChildFor(lo);
      db_->buffer_pool().Unfix(frame, false);
      continue;
    }
    db_->buffer_pool().Unfix(frame, false);
    break;
  }
  // Walk the leaf chain.
  while (cur.valid()) {
    IPA_ASSIGN_OR_RETURN(BufferPool::Frame * frame, db_->buffer_pool().Fix(cur));
    NodeReader node(frame->data(), db_->config().page_size);
    for (uint16_t i = node.LowerBound(lo); i < node.count(); i++) {
      if (node.key(i) > hi) {
        db_->buffer_pool().Unfix(frame, false);
        return Status::OK();
      }
      if (!fn(node.key(i), node.val(i))) {
        db_->buffer_pool().Unfix(frame, false);
        return Status::OK();
      }
    }
    PageId next;
    next.raw = node.link();
    db_->buffer_pool().Unfix(frame, false);
    cur = next;
  }
  return Status::OK();
}

}  // namespace ipa::engine
