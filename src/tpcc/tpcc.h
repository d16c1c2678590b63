/**
 * @file
 * The TPC-C workload on minidb: data load (clause 4.3), the five
 * transactions plus the paper's two variants (NEW ORDER 150 with
 * 50-150-line orders, DELIVERY OUTER with the outer district loop
 * parallelized), and the capture driver that turns transaction
 * executions into WorkloadTraces for the TLS machine.
 *
 * Two "builds" exist, as in the paper: the original build (untuned
 * database, no TLS markers — the SEQUENTIAL binary) and the TLS build
 * (tuned database, loop markers, epoch hooks — the TLS-SEQ and
 * parallel binaries). `DbConfig::tuned` selects between them.
 */

#ifndef TPCC_TPCC_H
#define TPCC_TPCC_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tracer.h"
#include "db/db.h"
#include "db/keys.h"
#include "tpcc/input.h"
#include "tpcc/schema.h"

namespace tlsim {
namespace tpcc {

/** The seven benchmarks of the paper's evaluation (Figure 5). */
enum class TxnType {
    NewOrder,
    NewOrder150,
    Delivery,
    DeliveryOuter,
    StockLevel,
    Payment,
    OrderStatus,
};

const char *txnTypeName(TxnType t);
const std::vector<TxnType> &allBenchmarks();

/**
 * Format version of database images (TpccDb::createImage). Bump it
 * whenever TpccDb::load, the row layouts or the page layout change:
 * an image is trusted to equal a fresh load byte for byte.
 */
inline constexpr std::uint32_t kDbImageVersion = 1;

/** The TPC-C database and transaction implementations. */
class TpccDb
{
  public:
    /** An empty database (every table a single empty leaf). */
    TpccDb(const TpccConfig &cfg, db::DbConfig db_cfg, Tracer &tracer);

    /**
     * Initial population per clause 4.3 (run before capturing). On a
     * pool backed by an image file, spills at every table and district
     * boundary (db::BufferPool::spill).
     */
    void load(std::uint64_t seed = 7);

    /**
     * A fresh load(`load_seed`) at scale `cfg`, written to the image
     * file `path` as it is built: its pages, its table directory (root
     * page and row count per table) and the history sequence, under a
     * header naming the scale, load seed and kDbImageVersion. The load
     * spills its finished pages into the file as it goes, so the
     * database is never resident whole; like an opened image, it reads
     * each page back the first time it is touched. Written to a
     * temporary file renamed into place, so a reader never sees a
     * partial image.
     */
    static std::unique_ptr<TpccDb>
    createImage(const std::string &path, const TpccConfig &cfg,
                db::DbConfig db_cfg, Tracer &tracer,
                std::uint64_t load_seed);

    /**
     * The database an image written by createImage() holds, equal byte
     * for byte to a fresh load(`load_seed`) at scale `cfg`. Nothing is
     * read up front: each page is read into its frame the first time
     * it is touched. Null if there is no file at `path`, and null
     * after inform() naming the defect if the file is foreign,
     * truncated, or of another scale, load seed or image version.
     */
    static std::unique_ptr<TpccDb>
    openImage(const std::string &path, const TpccConfig &cfg,
              db::DbConfig db_cfg, Tracer &tracer,
              std::uint64_t load_seed);

    /** Execute one transaction with inputs drawn from `gen`. */
    void runTransaction(TxnType type, InputGen &gen,
                        std::uint32_t stock_level_district = 1);

    db::Database &database() { return db_; }
    const Tables &tables() const { return t_; }
    const TpccConfig &config() const { return cfg_; }

    /** Result summaries for functional tests. */
    std::uint32_t districtNextOrderId(std::uint32_t d_id);
    std::uint64_t orderCount() const;
    std::uint64_t newOrderCount() const;
    double customerBalance(std::uint32_t d_id, std::uint32_t c_id);
    std::uint32_t lastStockLevelResult() const { return lastStockLevel_; }
    std::uint64_t rollbacks() const { return rollbacks_; }

    /** TPC-C consistency conditions 3.3.2.1/2 (tests). */
    void checkConsistency();

    // Key builders (also used by tests).
    static db::Bytes kWarehouse();
    static db::Bytes kDistrict(std::uint32_t d);
    static db::Bytes kCustomer(std::uint32_t d, std::uint32_t c);
    static db::Bytes kCustomerName(std::uint32_t d, db::BytesView last,
                                   std::uint32_t c);
    static db::Bytes kOrder(std::uint32_t d, std::uint32_t o);
    static db::Bytes kOrderCust(std::uint32_t d, std::uint32_t c,
                                std::uint32_t o);
    static db::Bytes kOrderLine(std::uint32_t d, std::uint32_t o,
                                std::uint32_t ol);
    static db::Bytes kNewOrder(std::uint32_t d, std::uint32_t o);
    static db::Bytes kItem(std::uint32_t i);
    static db::Bytes kStock(std::uint32_t i);
    static db::Bytes kHistory(std::uint64_t seq);

  private:
    struct ImageHeader;

    TpccDb(const TpccConfig &cfg, db::DbConfig db_cfg, Tracer &tracer,
           const ImageHeader *image);

    void txnNewOrder(const NewOrderInput &in);
    void txnPayment(const PaymentInput &in);
    void txnOrderStatus(const OrderStatusInput &in);
    void txnDelivery(const DeliveryInput &in, bool outer_parallel);
    void txnStockLevel(const StockLevelInput &in);

    /**
     * Resolve a customer by last name (60% case); returns c_id. The
     * scan loop is the (small) parallel region of PAYMENT (index-only)
     * and of ORDER STATUS (`read_rows`: each match also reads the
     * customer row, making the epochs meatier).
     */
    std::uint32_t customerByName(db::Txn &txn, std::uint32_t d_id,
                                 db::BytesView last, bool parallel_scan,
                                 bool read_rows = false);

    bool tlsBuild() const { return db_.config().tuned; }

    TpccConfig cfg_;
    db::Database db_;
    Tracer &tr_;
    Tables t_{};

    /** Set once loaded. Nothing reads it now, but removing it would
     *  move the traced members below it in cacheless captures. */
    std::optional<std::uint64_t> loadSeed_;
    std::uint64_t historySeq_ = 0;
    /** Shared distinct-item scratch of STOCK LEVEL (a real, hard
     *  cross-epoch dependence the paper reports as irreducible). */
    std::uint32_t stockSeenStamp_ = 0;
    std::vector<std::uint32_t> stockSeenStamps_;
    std::uint32_t lastStockLevel_ = 0;
    std::uint64_t rollbacks_ = 0;
};

// --------------------------------------------------------------------
// Capture driver
// --------------------------------------------------------------------

/** How to capture a benchmark. */
struct CaptureOptions
{
    unsigned txns = 12;        ///< transactions captured
    bool tlsBuild = true;      ///< tuned DB + markers (vs original)
    bool parallelMode = true;  ///< tracer honors the loop markers
    std::uint64_t inputSeed = 42;
    std::uint64_t loadSeed = 7;
    unsigned spawnOverheadInsts = 100;
    TpccConfig scale;
    /**
     * Database image shared by captures of this scale and load seed
     * (TpccDb::createImage). Opened if valid; otherwise the capture
     * loads afresh into it. Empty: always load afresh, in memory.
     */
    std::string dbImage;
};

/**
 * Run `opts.txns` transactions of `type` and capture their traces.
 * Creating `opts.dbImage` is single-flight across threads (the image's
 * StemLocks::forImage() mutex, held for the open-or-load only).
 */
WorkloadTrace captureBenchmark(TxnType type, const CaptureOptions &opts);

} // namespace tpcc
} // namespace tlsim

#endif // TPCC_TPCC_H
