#include "db/db.h"

#include "base/log.h"
#include "core/site.h"
#include "db/costs.h"

namespace tlsim {
namespace db {

Database::Database(DbConfig cfg, Tracer &tracer)
    : cfg_(std::move(cfg)), tr_(tracer), pool_(cfg_, tracer),
      locks_(cfg_, tracer), log_(cfg_, tracer)
{
}

TableId
Database::createTable(std::string name)
{
    tables_.push_back(std::make_unique<BTree>(pool_, tr_, cfg_,
                                              std::move(name)));
    return static_cast<TableId>(tables_.size() - 1);
}

TableId
Database::adoptTable(std::string name, PageId root, std::uint64_t rows)
{
    tables_.push_back(std::make_unique<BTree>(pool_, tr_, cfg_,
                                              std::move(name), root,
                                              rows));
    return static_cast<TableId>(tables_.size() - 1);
}

void
Database::apiCost(Pc pc, unsigned key_bytes, unsigned val_bytes)
{
    tr_.compute(pc, static_cast<unsigned>(
                        (cost::kApiCall +
                         key_bytes * cost::kKeyMarshalPerByte +
                         val_bytes * cost::kValMarshalPerByte) *
                        cfg_.costScale));
}

Txn
Database::begin()
{
    static const Site s_begin("txn.begin");
    Txn txn;
    txn.id_ = nextTxn_++;
    txn.active_ = true;
    tr_.compute(s_begin.pc, cost::kTxnBegin);
    log_.logRecord(24);
    logical_.append({LogicalRecord::Kind::Begin, txn.id_, 0, {}, {}, {}});
    return txn;
}

void
Database::commit(Txn &txn)
{
    static const Site s_commit("txn.commit");
    if (!txn.active_)
        panic("commit of inactive transaction %llu",
              static_cast<unsigned long long>(txn.id_));
    log_.txnCommit();
    logical_.append(
        {LogicalRecord::Kind::Commit, txn.id_, 0, {}, {}, {}});
    for (auto it = txn.locks_.rbegin(); it != txn.locks_.rend(); ++it)
        locks_.unlock(*it);
    tr_.compute(s_commit.pc, 200 + 30 * static_cast<unsigned>(
                                           txn.locks_.size()));
    txn.locks_.clear();
    txn.undo_.clear();
    txn.active_ = false;
}

void
Database::abort(Txn &txn)
{
    static const Site s_abort("txn.abort");
    if (!txn.active_)
        panic("abort of inactive transaction %llu",
              static_cast<unsigned long long>(txn.id_));
    // Roll back in reverse order through the B-trees.
    for (auto it = txn.undo_.rbegin(); it != txn.undo_.rend(); ++it) {
        BTree &t = *tables_.at(it->table);
        switch (it->kind) {
          case Txn::UndoKind::Insert:
            t.erase(it->key);
            break;
          case Txn::UndoKind::Update:
            t.put(it->key, it->oldVal, true);
            break;
          case Txn::UndoKind::Delete:
            t.put(it->key, it->oldVal, false);
            break;
        }
        log_.logRecord(48);
    }
    tr_.compute(s_abort.pc, cost::kTxnCommit);
    logical_.append(
        {LogicalRecord::Kind::Abort, txn.id_, 0, {}, {}, {}});
    for (auto it = txn.locks_.rbegin(); it != txn.locks_.rend(); ++it)
        locks_.unlock(*it);
    txn.locks_.clear();
    txn.undo_.clear();
    txn.active_ = false;
}

void
Database::traceTxnBookkeeping(Txn &txn, bool write_op)
{
    // In the original build every operation appends to the
    // transaction's shared lock list and (for writes) undo chain —
    // the per-operation read-modify-writes that make the untuned
    // database serialize under TLS. The tuned build batches this
    // state per epoch and links it into the transaction once, at
    // epoch end (LogManager::publishEpochRecords), so nothing is
    // traced here.
    if (cfg_.tuned)
        return;
    static const Site s_txn("txn.bookkeeping");
    tr_.load(s_txn.pc, &txn.locks_, 8);
    tr_.store(s_txn.pc, &txn.locks_, 8);
    if (write_op) {
        tr_.load(s_txn.pc, &txn.undo_, 8);
        tr_.store(s_txn.pc, &txn.undo_, 8);
    }
    tr_.compute(s_txn.pc, 40);
}

bool
Database::get(Txn &txn, TableId t, BytesView key, Bytes *val)
{
    static const Site s_get("db.get");
    apiCost(s_get.pc, static_cast<unsigned>(key.size()), 0);
    traceTxnBookkeeping(txn, false);
    ++epochOps_;
    txn.locks_.push_back(
        locks_.lock(t, key, LockMode::Shared));
    return tables_.at(t)->get(key, val);
}

void
Database::put(Txn &txn, TableId t, BytesView key, BytesView val)
{
    static const Site s_put("db.put");
    apiCost(s_put.pc, static_cast<unsigned>(key.size()),
            static_cast<unsigned>(val.size()));
    traceTxnBookkeeping(txn, true);
    ++epochOps_;
    txn.locks_.push_back(
        locks_.lock(t, key, LockMode::Exclusive));

    BTree &tree = *tables_.at(t);
    Bytes old;
    if (tree.get(key, &old)) {
        logical_.append({LogicalRecord::Kind::Update, txn.id_, t,
                         Bytes(key), old, Bytes(val)});
        txn.undo_.push_back(
            {Txn::UndoKind::Update, t, Bytes(key), std::move(old)});
    } else {
        logical_.append({LogicalRecord::Kind::Insert, txn.id_, t,
                         Bytes(key), {}, Bytes(val)});
        txn.undo_.push_back({Txn::UndoKind::Insert, t, Bytes(key), {}});
    }
    tree.put(key, val, true);
    log_.logRecord(static_cast<unsigned>(key.size() + val.size()) + 24);
}

bool
Database::insert(Txn &txn, TableId t, BytesView key, BytesView val)
{
    static const Site s_ins("db.insert");
    apiCost(s_ins.pc, static_cast<unsigned>(key.size()),
            static_cast<unsigned>(val.size()));
    traceTxnBookkeeping(txn, true);
    ++epochOps_;
    txn.locks_.push_back(
        locks_.lock(t, key, LockMode::Exclusive));

    BTree &tree = *tables_.at(t);
    if (!tree.put(key, val, false))
        return false;
    logical_.append({LogicalRecord::Kind::Insert, txn.id_, t,
                     Bytes(key), {}, Bytes(val)});
    txn.undo_.push_back({Txn::UndoKind::Insert, t, Bytes(key), {}});
    log_.logRecord(static_cast<unsigned>(key.size() + val.size()) + 24);
    return true;
}

bool
Database::erase(Txn &txn, TableId t, BytesView key)
{
    static const Site s_del("db.erase");
    apiCost(s_del.pc, static_cast<unsigned>(key.size()), 0);
    traceTxnBookkeeping(txn, true);
    ++epochOps_;
    txn.locks_.push_back(
        locks_.lock(t, key, LockMode::Exclusive));

    BTree &tree = *tables_.at(t);
    Bytes old;
    if (!tree.get(key, &old))
        return false;
    tree.erase(key);
    logical_.append({LogicalRecord::Kind::Delete, txn.id_, t,
                     Bytes(key), old, {}});
    txn.undo_.push_back(
        {Txn::UndoKind::Delete, t, Bytes(key), std::move(old)});
    log_.logRecord(static_cast<unsigned>(key.size()) + 24);
    return true;
}

} // namespace db
} // namespace tlsim
