//! Deterministic, scale-factor-parameterised TPC-H data generation.
//!
//! The generator reproduces the *structure* of the TPC-H population — key /
//! foreign-key relationships, table-size ratios, value domains used by the
//! query catalogue — with a seeded RNG so every run is reproducible. At scale
//! factor 1 the official benchmark has 150 k customers, 1.5 M orders and
//! ~6 M lineitems; this generator preserves those ratios at whatever scale
//! the caller asks for (benchmarks default to much smaller factors).

use std::ops::RangeInclusive;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_par::Pool;
use pdb_storage::columnar::{ColumnData, ColumnarData, NullBitmap, Packed, CHUNK_ROWS};
use pdb_storage::{DataType, Schema, Table};

use crate::dates::date;

/// TPC-H nation names (the 25 official ones).
pub const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

/// TPC-H region names.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Market segments used by query 3.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// Ship modes used by queries 12 and 19.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Part containers used by queries 17 and 19.
pub const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BAG",
    "MED BOX",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP BAG",
];

/// Part types used by query 2.
pub const PART_TYPES: [&str; 6] = [
    "ECONOMY BRASS",
    "STANDARD BRASS",
    "PROMO STEEL",
    "SMALL COPPER",
    "LARGE TIN",
    "MEDIUM NICKEL",
];

/// Scale parameters: table cardinalities derived from the scale factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchScale {
    /// TPC-H scale factor; 1.0 corresponds to the paper's 1 GB database.
    pub scale_factor: f64,
    /// RNG seed, so benchmarks and tests are reproducible.
    pub seed: u64,
}

impl TpchScale {
    /// A scale suitable for unit tests (1 813 tuples in total, 1 223 of them
    /// lineitems).
    pub fn tiny() -> TpchScale {
        TpchScale {
            scale_factor: 0.0002,
            seed: 42,
        }
    }

    /// A scale suitable for benchmarks on a laptop (tens of thousands of
    /// lineitems).
    pub fn bench() -> TpchScale {
        TpchScale {
            scale_factor: 0.005,
            seed: 7,
        }
    }

    /// An explicit scale factor with the default seed.
    pub fn new(scale_factor: f64) -> TpchScale {
        TpchScale {
            scale_factor,
            seed: 7,
        }
    }

    /// Number of suppliers.
    pub fn suppliers(&self) -> usize {
        ((10_000.0 * self.scale_factor) as usize).max(5)
    }

    /// Number of customers.
    pub fn customers(&self) -> usize {
        ((150_000.0 * self.scale_factor) as usize).max(10)
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        ((200_000.0 * self.scale_factor) as usize).max(10)
    }

    /// Number of orders.
    pub fn orders(&self) -> usize {
        ((1_500_000.0 * self.scale_factor) as usize).max(30)
    }
}

/// The eight deterministic TPC-H tables plus the customer-side copy of
/// `Nation`, before probabilistic conversion, as columnar data: each
/// relation draws straight into typed vectors — numbers, dates, and codes
/// into string dictionaries — which become its columns without a copy
/// ([`ColumnarData::from_columns`]), so neither a row copy of the database
/// nor a `Value` per cell is ever built. The columns sit behind an `Arc`,
/// and the catalogs of [`crate::probabilistic_catalog_columnar`] share them.
#[derive(Debug, Clone)]
pub struct TpchData {
    /// `(catalog name, data)` in registration order: `Region(rkey, rname)`;
    /// `Nation(nkey, nname, rkey)`, the supplier-side copy;
    /// `NationC(cnkey, cnname, crkey)`, the customer-side copy;
    /// `Supp(skey, sname, nkey, acctbal)`;
    /// `Cust(ckey, cname, cnkey, cacctbal, mktsegment)`;
    /// `Part(pkey, pname, brand, type, size, container, retailprice)`;
    /// `Psupp(pkey, skey, availqty, supplycost)`;
    /// `Ord(okey, ckey, ostatus, totalprice, odate, opriority)`;
    /// `Item(okey, linenumber, pkey, skey, quantity, extendedprice, discount,
    /// shipdate, returnflag, shipmode)`.
    tables: Vec<(&'static str, Arc<ColumnarData>)>,
}

impl TpchData {
    /// Generates the full database at the given scale.
    pub fn generate(scale: TpchScale) -> TpchData {
        let mut rng = SmallRng::seed_from_u64(scale.seed);
        let region = gen_region();
        let nation = gen_nation(false);
        let nation_c = gen_nation(true);
        let supp = gen_supp(&mut rng, scale.suppliers());
        let cust = gen_cust(&mut rng, scale.customers());
        let part = gen_part(&mut rng, scale.parts());
        let psupp = gen_psupp(&mut rng, scale.parts(), scale.suppliers());
        let (ord, item) = gen_orders_items(
            &mut rng,
            scale.orders(),
            scale.customers(),
            scale.parts(),
            scale.suppliers(),
        );
        TpchData {
            tables: vec![
                ("Region", region),
                ("Nation", nation),
                ("NationC", nation_c),
                ("Supp", supp),
                ("Cust", cust),
                ("Part", part),
                ("Psupp", psupp),
                ("Ord", ord),
                ("Item", item),
            ],
        }
    }

    /// Total number of tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.tables.iter().map(|(_, data)| data.len()).sum()
    }

    /// Every relation under its catalog name, in registration order.
    pub fn tables(&self) -> impl Iterator<Item = (&'static str, &Arc<ColumnarData>)> {
        self.tables.iter().map(|(name, data)| (*name, data))
    }

    /// A decoded row view of relation `name` (a catalog name such as
    /// `"Item"`): a fresh [`Table`] holding every row, in generation order.
    ///
    /// # Panics
    /// If no relation is called `name`.
    pub fn table(&self, name: &str) -> Table {
        let (_, data) = self
            .tables
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no TPC-H relation {name}"));
        data.to_table()
    }
}

/// A typed column without NULLs, and its type.
type Typed = (DataType, ColumnData);

/// The relation of the named `columns`, chunked and summarised on the pool
/// `SPROUT_THREADS` sets.
fn relation(columns: Vec<(&str, Typed)>) -> Arc<ColumnarData> {
    let pairs: Vec<(&str, DataType)> = columns.iter().map(|(name, (ty, _))| (*name, *ty)).collect();
    let schema = Schema::from_pairs(&pairs).expect("static schema");
    let columns = columns.into_iter().map(|(_, (_, data))| data).collect();
    let data = ColumnarData::from_columns(schema, CHUNK_ROWS, columns, &Pool::from_env());
    Arc::new(data.expect("generated columns fit their schema"))
}

/// An empty packed column framed for the values of `domain`, with room for
/// `rows` rows: the generator writes each column's words as it draws them.
fn packed(domain: RangeInclusive<i64>, rows: usize) -> Packed {
    Packed::with_domain(*domain.start(), *domain.end(), rows)
}

/// Appends `value` to `column`, inlined so each call site matches its own
/// column's width.
///
/// # Panics
/// If `value` lies outside the column's declared domain.
#[inline(always)]
fn put(column: &mut Packed, value: i64) {
    column
        .push(value)
        .expect("a generated value lies in its domain");
}

/// An empty packed column framed for `0..len` — the codes into a dictionary
/// of `len` strings, or keys counted from 0 — with room for `rows` rows.
fn codes(len: usize, rows: usize) -> Packed {
    packed(0..=len as i64 - 1, rows)
}

fn ints(values: Packed) -> Typed {
    let nulls = NullBitmap::new(values.len());
    (DataType::Int, ColumnData::Int { values, nulls })
}

fn floats(values: Vec<f64>) -> Typed {
    let nulls = NullBitmap::new(values.len());
    (DataType::Float, ColumnData::Float { values, nulls })
}

fn dates(values: Packed) -> Typed {
    let nulls = NullBitmap::new(values.len());
    (DataType::Date, ColumnData::Date { values, nulls })
}

/// A string column: row `r` holds `dict[codes.get(r)]`.
fn strs(codes: Packed, dict: Vec<Arc<str>>) -> Typed {
    let nulls = NullBitmap::new(codes.len());
    (DataType::Str, ColumnData::Str { dict, codes, nulls })
}

/// A string column whose row `r` holds the `r`-th name, each stored once.
fn listed(names: impl Iterator<Item = impl AsRef<str>>) -> Typed {
    let dict: Vec<Arc<str>> = names.map(|name| Arc::from(name.as_ref())).collect();
    strs(Packed::sequence(0, dict.len()), dict)
}

/// The dictionary of a domain of constants.
fn domain(names: &[&str]) -> Vec<Arc<str>> {
    names.iter().map(|&name| Arc::from(name)).collect()
}

fn gen_region() -> Arc<ColumnarData> {
    relation(vec![
        ("rkey", ints(Packed::sequence(0, REGIONS.len()))),
        ("rname", listed(REGIONS.iter())),
    ])
}

fn gen_nation(customer_side: bool) -> Arc<ColumnarData> {
    let (key, name, rkey) = if customer_side {
        ("cnkey", "cnname", "crkey")
    } else {
        ("nkey", "nname", "rkey")
    };
    let mut regions = codes(REGIONS.len(), NATIONS.len());
    for nation in 0..NATIONS.len() {
        put(&mut regions, (nation % REGIONS.len()) as i64);
    }
    relation(vec![
        (key, ints(Packed::sequence(0, NATIONS.len()))),
        (name, listed(NATIONS.iter())),
        (rkey, ints(regions)),
    ])
}

fn gen_supp(rng: &mut SmallRng, count: usize) -> Arc<ColumnarData> {
    let (mut nkey, mut acctbal) = (codes(NATIONS.len(), count), Vec::with_capacity(count));
    for _ in 0..count {
        put(&mut nkey, rng.gen_range(0..NATIONS.len() as i64));
        acctbal.push(round2(rng.gen_range(-999.0..10_000.0)));
    }
    relation(vec![
        ("skey", ints(Packed::sequence(1, count))),
        (
            "sname",
            listed((1..=count).map(|skey| format!("Supplier#{skey:09}"))),
        ),
        ("nkey", ints(nkey)),
        ("acctbal", floats(acctbal)),
    ])
}

fn gen_cust(rng: &mut SmallRng, count: usize) -> Arc<ColumnarData> {
    let (mut cnkey, mut acctbal) = (codes(NATIONS.len(), count), Vec::with_capacity(count));
    let mut segment = codes(SEGMENTS.len(), count);
    for _ in 0..count {
        put(&mut cnkey, rng.gen_range(0..NATIONS.len() as i64));
        acctbal.push(round2(rng.gen_range(-999.0..10_000.0)));
        put(&mut segment, rng.gen_range(0..SEGMENTS.len() as u32).into());
    }
    relation(vec![
        ("ckey", ints(Packed::sequence(1, count))),
        (
            "cname",
            listed((1..=count).map(|ckey| format!("Customer#{ckey:09}"))),
        ),
        ("cnkey", ints(cnkey)),
        ("cacctbal", floats(acctbal)),
        ("mktsegment", strs(segment, domain(&SEGMENTS))),
    ])
}

fn gen_part(rng: &mut SmallRng, count: usize) -> Arc<ColumnarData> {
    // The catalogue attributes are drawn from the same distributions as
    // before, then assigned to ascending part keys in sorted
    // (type, brand, size, container) order: a real part catalogue is
    // organised by product line, so parts of one type/brand/size sit next
    // to each other. The clustering is what gives per-chunk distinct
    // counts and bloom filters on these columns their selectivity — an
    // `Eq`/`In` probe on `size` or `brand` skips the chunks holding other
    // product lines.
    let mut attrs: Vec<(u32, u32, i64, u32)> = (0..count)
        .map(|_| {
            // `Brand#ab` for digits a, b in 1..=5, at index 5 (a - 1) + (b - 1):
            // index order is the names' lexicographic order.
            let brand = 5 * (rng.gen_range(1..6u32) - 1) + rng.gen_range(1..6u32) - 1;
            (
                rng.gen_range(0..PART_TYPES.len() as u32),
                brand,
                rng.gen_range(1..51i64),
                rng.gen_range(0..CONTAINERS.len() as u32),
            )
        })
        .collect();
    attrs.sort_unstable_by_key(|&(ptype, brand, size, container)| {
        (
            PART_TYPES[ptype as usize],
            brand,
            size,
            CONTAINERS[container as usize],
        )
    });
    let (mut brand, mut ptype) = (codes(25, count), codes(PART_TYPES.len(), count));
    let (mut container, mut size) = (codes(CONTAINERS.len(), count), packed(1..=50, count));
    let mut price = Vec::with_capacity(count);
    for (t, b, s, c) in attrs {
        put(&mut ptype, t.into());
        put(&mut brand, b.into());
        put(&mut size, s);
        put(&mut container, c.into());
        price.push(round2(900.0 + rng.gen_range(0.0..200.0)));
    }
    let brands = (1..6).flat_map(|a| (1..6).map(move |b| Arc::from(format!("Brand#{a}{b}"))));
    relation(vec![
        ("pkey", ints(Packed::sequence(1, count))),
        (
            "pname",
            listed((1..=count).map(|pkey| format!("part {pkey} forest lace"))),
        ),
        ("brand", strs(brand, brands.collect())),
        ("type", strs(ptype, domain(&PART_TYPES))),
        ("size", ints(size)),
        ("container", strs(container, domain(&CONTAINERS))),
        ("retailprice", floats(price)),
    ])
}

fn gen_psupp(rng: &mut SmallRng, parts: usize, suppliers: usize) -> Arc<ColumnarData> {
    // TPC-H associates 4 suppliers with every part.
    let rows = 4 * parts;
    let (mut pkey, mut skey) = (
        packed(1..=parts as i64, rows),
        packed(1..=suppliers as i64, rows),
    );
    let (mut availqty, mut supplycost) = (packed(1..=9_999, rows), Vec::with_capacity(rows));
    for part in 1..=parts as i64 {
        let mut chosen = [0; 4];
        for i in 0..4 {
            let mut supplier = rng.gen_range(1..=suppliers as i64);
            while chosen[..i].contains(&supplier) {
                supplier = rng.gen_range(1..=suppliers as i64);
            }
            chosen[i] = supplier;
            put(&mut pkey, part);
            put(&mut skey, supplier);
            put(&mut availqty, rng.gen_range(1..10_000i64));
            supplycost.push(round2(rng.gen_range(1.0..1_000.0)));
        }
    }
    relation(vec![
        ("pkey", ints(pkey)),
        ("skey", ints(skey)),
        ("availqty", ints(availqty)),
        ("supplycost", floats(supplycost)),
    ])
}

fn gen_orders_items(
    rng: &mut SmallRng,
    orders: usize,
    customers: usize,
    parts: usize,
    suppliers: usize,
) -> (Arc<ColumnarData>, Arc<ColumnarData>) {
    let start = date(1992, 1, 1);
    let end = date(1998, 8, 2);
    // Orders arrive in date order: the dates are drawn from the same
    // uniform range as before, then assigned to ascending order keys, so
    // insertion order is clustered by `odate` (and, transitively, by the
    // lineitems' `shipdate`) — the physical locality real order streams
    // have, and what makes per-chunk zone maps on the date columns
    // selective.
    let mut odates: Vec<i32> = (0..orders).map(|_| rng.gen_range(start..end)).collect();
    odates.sort_unstable();
    // Order status is date-correlated, as in the real benchmark: orders up
    // to the median date have been fulfilled (`F`), later ones are still
    // open (`O`). With date-clustered insertion this makes `ostatus`
    // constant within almost every chunk, so equality probes on it prune
    // half the table instead of scanning all of it.
    let median = odates[orders / 2];
    let priorities = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
    let (flags, statuses) = (["R", "A", "N"], ["F", "O"]);
    let (mut ckey, mut totalprice) = (
        packed(1..=customers as i64, orders),
        Vec::with_capacity(orders),
    );
    let (mut status, mut priority) = (codes(2, orders), codes(priorities.len(), orders));
    let mut odate = packed(start.into()..=(end - 1).into(), orders);
    // 1..=7 lines an order: 4 on average, with a standard deviation of 2 an
    // order, so room for the mean plus four standard deviations of the
    // total is rarely outgrown.
    let lines = 4 * orders + 8 * (orders as f64).sqrt() as usize;
    let (mut okey, mut linenumber) = (packed(1..=orders as i64, lines), packed(1..=7, lines));
    let (mut pkey, mut skey) = (
        packed(1..=parts as i64, lines),
        packed(1..=suppliers as i64, lines),
    );
    let mut quantity = packed(1..=50, lines);
    let [mut extendedprice, mut discount]: [Vec<f64>; 2] =
        std::array::from_fn(|_| Vec::with_capacity(lines));
    let (mut flag, mut mode) = (codes(flags.len(), lines), codes(SHIP_MODES.len(), lines));
    let mut shipdate = packed((start + 1).into()..=(end + 120).into(), lines);
    for (order, &day) in (1..=orders as i64).zip(&odates) {
        put(&mut ckey, rng.gen_range(1..=customers as i64));
        put(&mut status, i64::from(day > median));
        put(&mut odate, day.into());
        totalprice.push(round2(rng.gen_range(1_000.0..400_000.0)));
        put(
            &mut priority,
            rng.gen_range(0..priorities.len() as u32).into(),
        );
        for line in 1..=rng.gen_range(1..=7i64) {
            put(&mut shipdate, (day + rng.gen_range(1..122i32)).into());
            put(&mut okey, order);
            put(&mut linenumber, line);
            put(&mut pkey, rng.gen_range(1..=parts as i64));
            put(&mut skey, rng.gen_range(1..=suppliers as i64));
            put(&mut quantity, rng.gen_range(1..=50i64));
            extendedprice.push(round2(rng.gen_range(900.0..100_000.0)));
            discount.push(round2(rng.gen_range(0.0..0.11)));
            put(&mut flag, rng.gen_range(0..flags.len() as u32).into());
            put(&mut mode, rng.gen_range(0..SHIP_MODES.len() as u32).into());
        }
    }
    drop(odates);
    let ord = relation(vec![
        ("okey", ints(Packed::sequence(1, orders))),
        ("ckey", ints(ckey)),
        ("ostatus", strs(status, domain(&statuses))),
        ("totalprice", floats(totalprice)),
        ("odate", dates(odate)),
        ("opriority", strs(priority, domain(&priorities))),
    ]);
    let item = relation(vec![
        ("okey", ints(okey)),
        ("linenumber", ints(linenumber)),
        ("pkey", ints(pkey)),
        ("skey", ints(skey)),
        ("quantity", ints(quantity)),
        ("extendedprice", floats(extendedprice)),
        ("discount", floats(discount)),
        ("shipdate", dates(shipdate)),
        ("returnflag", strs(flag, domain(&flags))),
        ("shipmode", strs(mode, domain(&SHIP_MODES))),
    ]);
    (ord, item)
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_storage::Value;

    #[test]
    fn cardinalities_follow_the_scale_factor() {
        let scale = TpchScale::tiny();
        let data = TpchData::generate(scale);
        assert_eq!(data.table("Region").len(), 5);
        assert_eq!(data.table("Nation").len(), 25);
        assert_eq!(data.table("NationC").len(), 25);
        assert_eq!(data.table("Cust").len(), scale.customers());
        assert_eq!(data.table("Ord").len(), scale.orders());
        assert_eq!(data.table("Psupp").len(), 4 * scale.parts());
        // Roughly 4 lineitems per order.
        assert!(data.table("Item").len() >= data.table("Ord").len());
        assert!(data.table("Item").len() <= 7 * data.table("Ord").len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchData::generate(TpchScale::tiny());
        let b = TpchData::generate(TpchScale::tiny());
        assert_eq!(a.table("Ord").rows(), b.table("Ord").rows());
        assert_eq!(a.table("Item").rows(), b.table("Item").rows());
        // A different seed produces different data.
        let c = TpchData::generate(TpchScale {
            seed: 123,
            ..TpchScale::tiny()
        });
        assert_ne!(a.table("Ord").rows(), c.table("Ord").rows());
    }

    #[test]
    fn foreign_keys_reference_existing_tuples() {
        let scale = TpchScale::tiny();
        let data = TpchData::generate(scale);
        let customers = scale.customers() as i64;
        for row in data.table("Ord").rows() {
            let ckey = row.value(1).as_int().unwrap();
            assert!(ckey >= 1 && ckey <= customers);
        }
        let orders = scale.orders() as i64;
        for row in data.table("Item").rows() {
            let okey = row.value(0).as_int().unwrap();
            assert!(okey >= 1 && okey <= orders);
        }
    }

    #[test]
    fn orders_are_clustered_by_date() {
        // Insertion order is odate-ascending (PR 5): the locality the
        // columnar zone maps exploit.
        let data = TpchData::generate(TpchScale::tiny());
        let mut prev = i64::MIN;
        for row in data.table("Ord").rows() {
            let d = row.value(4).as_int().unwrap();
            assert!(d >= prev, "odate regressed");
            prev = d;
        }
    }

    #[test]
    fn parts_are_clustered_by_catalogue_order() {
        // Part attributes are assigned to ascending pkeys in sorted
        // (type, brand, size, container) order, so chunks of the part table
        // hold few distinct catalogue values.
        let data = TpchData::generate(TpchScale::tiny());
        let mut prev: Option<(String, String, i64, String)> = None;
        for row in data.table("Part").rows() {
            let key = (
                row.value(3).to_string(),
                row.value(2).to_string(),
                row.value(4).as_int().unwrap(),
                row.value(5).to_string(),
            );
            if let Some(p) = &prev {
                assert!(*p <= key, "catalogue order regressed: {p:?} > {key:?}");
            }
            prev = Some(key);
        }
    }

    #[test]
    fn order_status_is_date_correlated() {
        // `F` iff the order date is at or before the median date: with
        // date-clustered insertion, `ostatus` is constant within almost
        // every chunk.
        let ord = TpchData::generate(TpchScale::tiny()).table("Ord");
        let mut dates: Vec<i64> = ord
            .rows()
            .iter()
            .map(|r| r.value(4).as_int().unwrap())
            .collect();
        dates.sort_unstable();
        let median = dates[dates.len() / 2];
        for row in ord.rows() {
            let d = row.value(4).as_int().unwrap();
            let status = row.value(2).to_string();
            let expected = if d <= median { "F" } else { "O" };
            assert_eq!(status, expected, "odate {d} vs median {median}");
        }
    }

    #[test]
    fn keys_are_unique() {
        let data = TpchData::generate(TpchScale::tiny());
        assert_eq!(
            data.table("Ord").distinct_values("okey").unwrap().len(),
            data.table("Ord").len()
        );
        assert_eq!(
            data.table("Cust").distinct_values("ckey").unwrap().len(),
            data.table("Cust").len()
        );
        assert_eq!(
            data.table("Part").distinct_values("pkey").unwrap().len(),
            data.table("Part").len()
        );
    }

    #[test]
    fn value_domains_match_the_query_constants() {
        let data = TpchData::generate(TpchScale::tiny());
        let segments = data.table("Cust").distinct_values("mktsegment").unwrap();
        assert!(segments.contains(&Value::str("BUILDING")));
        let names = data.table("Nation").distinct_values("nname").unwrap();
        assert!(names.contains(&Value::str("FRANCE")));
        assert!(names.contains(&Value::str("GERMANY")));
        let modes = data.table("Item").distinct_values("shipmode").unwrap();
        assert!(modes.contains(&Value::str("MAIL")));
    }

    #[test]
    fn scale_accessors() {
        let s = TpchScale::new(0.01);
        assert_eq!(s.customers(), 1_500);
        assert_eq!(s.orders(), 15_000);
        assert_eq!(s.suppliers(), 100);
        assert_eq!(s.parts(), 2_000);
        assert!(TpchScale::bench().scale_factor > TpchScale::tiny().scale_factor);
    }
}
