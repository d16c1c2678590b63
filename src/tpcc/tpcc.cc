#include "tpcc/tpcc.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "base/log.h"
#include "base/stats.h"
#include "base/sync.h"
#include "core/site.h"

namespace tlsim {
namespace tpcc {

using db::Bytes;
using db::BytesView;
using db::KeyBuilder;

const char *
txnTypeName(TxnType t)
{
    switch (t) {
      case TxnType::NewOrder: return "NEW ORDER";
      case TxnType::NewOrder150: return "NEW ORDER 150";
      case TxnType::Delivery: return "DELIVERY";
      case TxnType::DeliveryOuter: return "DELIVERY OUTER";
      case TxnType::StockLevel: return "STOCK LEVEL";
      case TxnType::Payment: return "PAYMENT";
      case TxnType::OrderStatus: return "ORDER STATUS";
    }
    return "?";
}

const std::vector<TxnType> &
allBenchmarks()
{
    static const std::vector<TxnType> v = {
        TxnType::NewOrder,  TxnType::NewOrder150,
        TxnType::Delivery,  TxnType::DeliveryOuter,
        TxnType::StockLevel, TxnType::Payment,
        TxnType::OrderStatus,
    };
    return v;
}

// --------------------------------------------------------------------
// Keys
// --------------------------------------------------------------------

Bytes
TpccDb::kWarehouse()
{
    return KeyBuilder().u32(1).bytes();
}

Bytes
TpccDb::kDistrict(std::uint32_t d)
{
    return KeyBuilder().u32(d).bytes();
}

Bytes
TpccDb::kCustomer(std::uint32_t d, std::uint32_t c)
{
    return KeyBuilder().u32(d).u32(c).bytes();
}

Bytes
TpccDb::kCustomerName(std::uint32_t d, BytesView last, std::uint32_t c)
{
    return KeyBuilder().u32(d).str(last, 16).u32(c).bytes();
}

Bytes
TpccDb::kOrder(std::uint32_t d, std::uint32_t o)
{
    return KeyBuilder().u32(d).u32(o).bytes();
}

Bytes
TpccDb::kOrderCust(std::uint32_t d, std::uint32_t c, std::uint32_t o)
{
    return KeyBuilder().u32(d).u32(c).u32Desc(o).bytes();
}

Bytes
TpccDb::kOrderLine(std::uint32_t d, std::uint32_t o, std::uint32_t ol)
{
    return KeyBuilder().u32(d).u32(o).u32(ol).bytes();
}

Bytes
TpccDb::kNewOrder(std::uint32_t d, std::uint32_t o)
{
    return KeyBuilder().u32(d).u32(o).bytes();
}

Bytes
TpccDb::kItem(std::uint32_t i)
{
    return KeyBuilder().u32(i).bytes();
}

Bytes
TpccDb::kStock(std::uint32_t i)
{
    return KeyBuilder().u32(i).bytes();
}

Bytes
TpccDb::kHistory(std::uint64_t seq)
{
    return KeyBuilder().u64(seq).bytes();
}

// --------------------------------------------------------------------
// Construction and initial load
// --------------------------------------------------------------------

namespace {

/** The tables in TableId order (the order of an image's directory). */
constexpr std::pair<const char *, db::TableId Tables::*> kTableList[] = {
    {"WAREHOUSE", &Tables::warehouse},
    {"DISTRICT", &Tables::district},
    {"CUSTOMER", &Tables::customer},
    {"CUSTOMER_NAME", &Tables::customerName},
    {"HISTORY", &Tables::history},
    {"NEW_ORDER", &Tables::newOrder},
    {"ORDER", &Tables::order},
    {"ORDER_CUST", &Tables::orderCust},
    {"ORDER_LINE", &Tables::orderLine},
    {"ITEM", &Tables::item},
    {"STOCK", &Tables::stock},
};
constexpr std::size_t kTableCount = std::size(kTableList);

} // namespace

/**
 * The first page of an image file, as 64-bit words: magic, version,
 * the five scale fields, load seed, history sequence, page count,
 * table count, then (root, rows) per table; zero to the end of the
 * page. Page p follows at byte offset p * kPageSize.
 */
struct TpccDb::ImageHeader
{
    static constexpr std::uint64_t kMagic = 0x4d49424443435054; // TPCCDBIM
    static constexpr std::size_t kWords = 11 + 2 * kTableCount;

    std::array<std::uint64_t, kWords> w{};

    std::uint64_t loadSeed() const { return w[7]; }
    std::uint64_t historySeq() const { return w[8]; }
    db::PageId pages() const { return static_cast<db::PageId>(w[9]); }
    db::PageId root(std::size_t t) const
    {
        return static_cast<db::PageId>(w[11 + 2 * t]);
    }
    std::uint64_t rows(std::size_t t) const { return w[12 + 2 * t]; }

    /** The words identifying what was loaded (magic to load seed). */
    static std::array<std::uint64_t, 8>
    identity(const TpccConfig &cfg, std::uint64_t load_seed)
    {
        return {kMagic, kDbImageVersion, cfg.items, cfg.districts,
                cfg.customersPerDistrict, cfg.ordersPerDistrict,
                cfg.firstNewOrder, load_seed};
    }
};

TpccDb::TpccDb(const TpccConfig &cfg, db::DbConfig db_cfg,
               Tracer &tracer)
    : TpccDb(cfg, std::move(db_cfg), tracer, nullptr)
{
}

TpccDb::TpccDb(const TpccConfig &cfg, db::DbConfig db_cfg,
               Tracer &tracer, const ImageHeader *image)
    : cfg_(cfg), db_(std::move(db_cfg), tracer), tr_(tracer)
{
    for (std::size_t t = 0; t < kTableCount; ++t) {
        auto [name, field] = kTableList[t];
        t_.*field = image ? db_.adoptTable(name, image->root(t),
                                           image->rows(t))
                          : db_.createTable(name);
    }
    if (image) {
        loadSeed_ = image->loadSeed();
        historySeq_ = image->historySeq();
    }
    stockSeenStamps_.assign(cfg_.items + 1, 0);
}

std::unique_ptr<TpccDb>
TpccDb::createImage(const std::string &path, const TpccConfig &cfg,
                    db::DbConfig db_cfg, Tracer &tracer,
                    std::uint64_t load_seed)
{
    auto tdb = std::make_unique<TpccDb>(cfg, std::move(db_cfg), tracer);
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    if (fd < 0)
        fatal("cannot write database image %s", tmp.c_str());
    db::BufferPool &pool = tdb->db_.pool();
    pool.attachImage(fd, 0); // the pool owns fd from here
    tdb->load(load_seed);    // ends with a spill: every page is written

    ImageHeader h;
    auto id = ImageHeader::identity(cfg, load_seed);
    std::copy(id.begin(), id.end(), h.w.begin());
    h.w[8] = tdb->historySeq_;
    h.w[9] = pool.pagesAllocated();
    h.w[10] = kTableCount;
    for (std::size_t t = 0; t < kTableCount; ++t) {
        const db::BTree &tree =
            tdb->db_.table(static_cast<db::TableId>(t));
        h.w[11 + 2 * t] = tree.root();
        h.w[12 + 2 * t] = tree.size();
    }
    std::array<std::uint8_t, db::kPageSize> first{};
    std::memcpy(first.data(), h.w.data(), sizeof(h.w));
    if (::pwrite(fd, first.data(), first.size(), 0) !=
            static_cast<ssize_t>(first.size()) ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("error writing database image %s", path.c_str());
    }
    return tdb;
}

std::unique_ptr<TpccDb>
TpccDb::openImage(const std::string &path, const TpccConfig &cfg,
                  db::DbConfig db_cfg, Tracer &tracer,
                  std::uint64_t load_seed)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return nullptr;

    ImageHeader h;
    struct stat st;
    const char *why = nullptr;
    if (::fstat(fd, &st) != 0 ||
        ::pread(fd, h.w.data(), sizeof(h.w), 0) !=
            static_cast<ssize_t>(sizeof(h.w))) {
        why = "unreadable or truncated header";
    } else {
        auto id = ImageHeader::identity(cfg, load_seed);
        if (h.w[0] != ImageHeader::kMagic)
            why = "foreign file (bad magic)";
        else if (h.w[1] != kDbImageVersion)
            why = "other image version";
        else if (!std::equal(id.begin(), id.end(), h.w.begin()))
            why = "other scale or load seed";
        else if (h.w[10] != kTableCount)
            why = "bad table count";
        else if (h.w[9] < kTableCount || h.w[9] > db_cfg.maxPages)
            why = "bad page count";
        else if (static_cast<std::uint64_t>(st.st_size) !=
                 (h.w[9] + 1) * db::kPageSize)
            why = "truncated or oversized";
        for (std::size_t t = 0; !why && t < kTableCount; ++t)
            if (h.root(t) == db::kInvalidPage || h.root(t) > h.pages())
                why = "table root out of range";
    }
    if (why) {
        ::close(fd);
        inform("database image %s rejected: %s", path.c_str(), why);
        return nullptr;
    }

    std::unique_ptr<TpccDb> tdb(
        new TpccDb(cfg, std::move(db_cfg), tracer, &h));
    tdb->db_.pool().attachImage(fd, h.pages());
    return tdb;
}

namespace {

void
fillString(Rng &rng, char *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<char>('a' + rng.uniform(0, 25));
}

} // namespace

void
TpccDb::load(std::uint64_t seed)
{
    loadSeed_ = seed;
    Rng rng(seed);

    // ITEM
    for (std::uint32_t i = 1; i <= cfg_.items; ++i) {
        ItemRow r{};
        r.i_id = i;
        r.im_id = static_cast<std::uint32_t>(rng.uniform(1, 10000));
        fillString(rng, r.name, sizeof(r.name));
        r.price = static_cast<double>(rng.uniform(100, 10000)) / 100.0;
        fillString(rng, r.data, sizeof(r.data));
        db_.table(t_.item).put(kItem(i), toBytes(r), false);
    }
    db_.pool().spill();

    // WAREHOUSE (single warehouse, as in the paper)
    {
        WarehouseRow r{};
        r.w_id = 1;
        fillString(rng, r.name, sizeof(r.name));
        fillString(rng, r.street_1, sizeof(r.street_1));
        fillString(rng, r.city, sizeof(r.city));
        r.tax = static_cast<double>(rng.uniform(0, 2000)) / 10000.0;
        r.ytd = 300000.0;
        db_.table(t_.warehouse).put(kWarehouse(), toBytes(r), false);
    }

    // STOCK
    for (std::uint32_t i = 1; i <= cfg_.items; ++i) {
        StockRow r{};
        r.i_id = i;
        r.quantity =
            static_cast<std::int32_t>(rng.uniform(10, 100));
        for (auto &dst : r.dist)
            fillString(rng, dst, sizeof(dst));
        fillString(rng, r.data, sizeof(r.data));
        db_.table(t_.stock).put(kStock(i), toBytes(r), false);
    }
    db_.pool().spill();

    // DISTRICT / CUSTOMER / ORDER history
    for (std::uint32_t d = 1; d <= cfg_.districts; ++d) {
        DistrictRow dr{};
        dr.d_id = d;
        dr.w_id = 1;
        fillString(rng, dr.name, sizeof(dr.name));
        fillString(rng, dr.city, sizeof(dr.city));
        dr.tax = static_cast<double>(rng.uniform(0, 2000)) / 10000.0;
        dr.ytd = 30000.0;
        dr.next_o_id = cfg_.ordersPerDistrict + 1;
        db_.table(t_.district).put(kDistrict(d), toBytes(dr), false);

        for (std::uint32_t c = 1; c <= cfg_.customersPerDistrict; ++c) {
            CustomerRow cr{};
            cr.c_id = c;
            cr.d_id = d;
            cr.w_id = 1;
            // Customers 1..1000 cover every syllable name; the rest
            // draw uniformly so a by-name lookup matches ~3 customers
            // (the NURand concentration lives in the *queries*).
            std::string last =
                c <= 1000
                    ? lastName(c - 1)
                    : lastName(static_cast<unsigned>(rng.uniform(
                          0, std::min(cfg_.customersPerDistrict,
                                      1000u) -
                                 1)));
            std::snprintf(cr.last, sizeof(cr.last), "%s", last.c_str());
            fillString(rng, cr.first, sizeof(cr.first));
            cr.middle[0] = 'O';
            cr.middle[1] = 'E';
            bool bad_credit = rng.uniform(1, 100) <= 10;
            cr.credit[0] = bad_credit ? 'B' : 'G';
            cr.credit[1] = 'C';
            cr.credit_lim = 50000.0;
            cr.discount =
                static_cast<double>(rng.uniform(0, 5000)) / 10000.0;
            cr.balance = -10.0;
            cr.ytd_payment = 10.0;
            cr.payment_cnt = 1;
            fillString(rng, cr.data, sizeof(cr.data));
            db_.table(t_.customer).put(kCustomer(d, c), toBytes(cr),
                                       false);
            CustomerNameEntry ne{};
            std::memcpy(ne.first, cr.first, sizeof(ne.first));
            ne.c_id = c;
            db_.table(t_.customerName)
                .put(kCustomerName(d, last, c), toBytes(ne), false);

            HistoryRow hr{};
            hr.c_id = c;
            hr.c_d_id = d;
            hr.d_id = d;
            hr.amount = 10.0;
            db_.table(t_.history).put(kHistory(++historySeq_),
                                      toBytes(hr), false);
        }

        // Orders over a random permutation of customers.
        std::vector<std::uint32_t> perm(cfg_.customersPerDistrict);
        for (std::uint32_t i = 0; i < perm.size(); ++i)
            perm[i] = i + 1;
        for (std::size_t i = perm.size(); i-- > 1;)
            std::swap(perm[i],
                      perm[static_cast<std::size_t>(
                          rng.uniform(0, static_cast<std::int64_t>(i)))]);

        for (std::uint32_t o = 1; o <= cfg_.ordersPerDistrict; ++o) {
            OrderRow orow{};
            orow.o_id = o;
            orow.c_id = perm[(o - 1) % perm.size()];
            orow.d_id = d;
            orow.entry_d = o;
            bool delivered = o < cfg_.firstNewOrder;
            orow.carrier_id =
                delivered
                    ? static_cast<std::uint32_t>(rng.uniform(1, 10))
                    : 0;
            orow.ol_cnt =
                static_cast<std::uint32_t>(rng.uniform(5, 15));
            orow.all_local = 1;
            db_.table(t_.order).put(kOrder(d, o), toBytes(orow), false);
            std::uint32_t oid = o;
            db_.table(t_.orderCust)
                .put(kOrderCust(d, orow.c_id, o),
                     Bytes(reinterpret_cast<const char *>(&oid), 4),
                     false);
            for (std::uint32_t ol = 1; ol <= orow.ol_cnt; ++ol) {
                OrderLineRow lr{};
                lr.o_id = o;
                lr.d_id = d;
                lr.ol_number = ol;
                lr.i_id = static_cast<std::uint32_t>(
                    rng.uniform(1, cfg_.items));
                lr.supply_w_id = 1;
                lr.delivery_d = delivered ? orow.entry_d : 0;
                lr.quantity = 5;
                lr.amount =
                    delivered ? 0.0
                              : static_cast<double>(
                                    rng.uniform(1, 999999)) /
                                    100.0;
                fillString(rng, lr.dist_info, sizeof(lr.dist_info));
                db_.table(t_.orderLine)
                    .put(kOrderLine(d, o, ol), toBytes(lr), false);
            }
            if (!delivered) {
                NewOrderRow nr{o, d};
                db_.table(t_.newOrder)
                    .put(kNewOrder(d, o), toBytes(nr), false);
            }
        }
        db_.pool().spill();
    }
}

// --------------------------------------------------------------------
// Dispatch and summaries
// --------------------------------------------------------------------

void
TpccDb::runTransaction(TxnType type, InputGen &gen,
                       std::uint32_t stock_level_district)
{
    switch (type) {
      case TxnType::NewOrder:
        txnNewOrder(gen.newOrder(false));
        break;
      case TxnType::NewOrder150:
        txnNewOrder(gen.newOrder(true));
        break;
      case TxnType::Delivery:
        txnDelivery(gen.delivery(), false);
        break;
      case TxnType::DeliveryOuter:
        txnDelivery(gen.delivery(), true);
        break;
      case TxnType::StockLevel:
        txnStockLevel(gen.stockLevel(stock_level_district));
        break;
      case TxnType::Payment:
        txnPayment(gen.payment());
        break;
      case TxnType::OrderStatus:
        txnOrderStatus(gen.orderStatus());
        break;
    }
}

std::uint32_t
TpccDb::districtNextOrderId(std::uint32_t d_id)
{
    Bytes buf;
    if (!db_.table(t_.district).get(kDistrict(d_id), &buf))
        panic("district %u missing", d_id);
    return fromBytes<DistrictRow>(buf).next_o_id;
}

std::uint64_t
TpccDb::orderCount() const
{
    return const_cast<TpccDb *>(this)->db_.table(t_.order).size();
}

std::uint64_t
TpccDb::newOrderCount() const
{
    return const_cast<TpccDb *>(this)->db_.table(t_.newOrder).size();
}

double
TpccDb::customerBalance(std::uint32_t d_id, std::uint32_t c_id)
{
    Bytes buf;
    if (!db_.table(t_.customer).get(kCustomer(d_id, c_id), &buf))
        panic("customer (%u,%u) missing", d_id, c_id);
    return fromBytes<CustomerRow>(buf).balance;
}

void
TpccDb::checkConsistency()
{
    // TPC-C 3.3.2.1/2: for every district, d_next_o_id - 1 equals the
    // maximum O_ID in ORDER and (when present) in NEW_ORDER, and the
    // NEW_ORDER ids for a district are contiguous.
    for (std::uint32_t d = 1; d <= cfg_.districts; ++d) {
        std::uint32_t next = districtNextOrderId(d);

        std::uint32_t max_o = 0;
        auto cur = db_.cursor(t_.order);
        for (bool ok = cur.seek(kOrder(d, 0)); ok; ok = cur.next()) {
            OrderRow r = fromBytes<OrderRow>(cur.value());
            if (r.d_id != d)
                break;
            max_o = std::max(max_o, r.o_id);
        }
        if (max_o + 1 != next)
            panic("consistency: district %u next_o_id %u vs max order "
                  "%u",
                  d, next, max_o);

        std::uint32_t no_min = ~0u, no_max = 0, no_count = 0;
        auto ncur = db_.cursor(t_.newOrder);
        for (bool ok = ncur.seek(kNewOrder(d, 0)); ok;
             ok = ncur.next()) {
            NewOrderRow r = fromBytes<NewOrderRow>(ncur.value());
            if (r.d_id != d)
                break;
            no_min = std::min(no_min, r.o_id);
            no_max = std::max(no_max, r.o_id);
            ++no_count;
        }
        if (no_count > 0) {
            if (no_max != max_o)
                panic("consistency: district %u new-order max %u vs "
                      "order max %u",
                      d, no_max, max_o);
            if (no_max - no_min + 1 != no_count)
                panic("consistency: district %u new-order ids not "
                      "contiguous",
                      d);
        }
    }
}

// --------------------------------------------------------------------
// Capture driver
// --------------------------------------------------------------------

namespace {

/** A database opened from the image at `opts.dbImage`, or loaded
 *  afresh and saved there. */
std::unique_ptr<TpccDb>
imageDatabase(const CaptureOptions &opts, const db::DbConfig &dbc,
              Tracer &tracer)
{
    // Single-flight: concurrent captures wanting the same image wait
    // here while the first one loads and writes it. The lock covers
    // the open-or-load only, never the transactions.
    MutexLock image_lock(StemLocks::instance().forImage(opts.dbImage));
    auto &gc = stats::GlobalCounters::instance();
    if (auto opened = TpccDb::openImage(opts.dbImage, opts.scale, dbc,
                                        tracer, opts.loadSeed)) {
        gc.add("dbimage.open");
        return opened;
    }
    gc.add("dbimage.create");
    return TpccDb::createImage(opts.dbImage, opts.scale, dbc, tracer,
                               opts.loadSeed);
}

WorkloadTrace
runCapture(TxnType type, const CaptureOptions &opts, Tracer &tracer,
           TpccDb &tdb)
{
    InputGen gen(opts.scale, opts.inputSeed);
    for (unsigned i = 0; i < opts.txns; ++i) {
        std::uint32_t sld = (i % opts.scale.districts) + 1;
        tracer.txnBegin();
        tdb.runTransaction(type, gen, sld);
        tracer.txnEnd();
    }
    return tracer.takeWorkload();
}

} // namespace

WorkloadTrace
captureBenchmark(TxnType type, const CaptureOptions &opts)
{
    Tracer::Options topts;
    topts.parallelMode = opts.parallelMode;
    topts.spawnOverheadInsts = opts.spawnOverheadInsts;
    Tracer tracer(topts);

    db::DbConfig dbc;
    dbc.tuned = opts.tlsBuild;
    if (!opts.dbImage.empty())
        return runCapture(type, opts, tracer,
                          *imageDatabase(opts, dbc, tracer));

    // Without an image the database lives on the stack, as it always
    // has: its traced members keep their place in the address layout.
    TpccDb tdb(opts.scale, dbc, tracer);
    tdb.load(opts.loadSeed);
    return runCapture(type, opts, tracer, tdb);
}

} // namespace tpcc
} // namespace tlsim
