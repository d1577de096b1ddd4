//! Memoized characterization of configuration sub-blocks.
//!
//! Characterizing a candidate means knowing its hardware cost (LUTs,
//! critical path, energy/EDP — from `axmul-fabric`) and its error
//! statistics (from `axmul-metrics`). Both are expensive to recompute
//! per candidate, but candidates share sub-blocks massively: every 8×8
//! candidate is built from the same five 4×4 leaves, and 16×16
//! candidates re-use whole 8×8 quadrants. [`CharCache`] therefore
//! memoizes one [`BlockChar`] per *canonical configuration key*
//! ([`crate::Config::key`]) and assembles parents from cached children.
//!
//! # Why value tables, not error PMFs
//!
//! The four quadrant products of a recursive multiplier share operand
//! halves (`AL·BL` and `AL·BH` both read `AL`), so their errors are
//! *dependent* random variables: convolving per-quadrant error PMFs
//! would be wrong (and under carry-free summation the quadrant errors
//! do not even compose additively). The cache instead keeps each
//! leaf's exhaustive **value table** (256 entries for a 4-bit block)
//! and composes parent values exactly with
//! [`axmul_core::behavioral::combine_products`]. An 8-bit quad's
//! statistics are swept one composed operand row at a time, so its
//! 65 536-entry table is built only when something evaluates the block
//! ([`BlockChar::table`], [`BlockChar::multiplier`], or a 16-bit parent
//! composing it). Composed statistics are *exact* — bit-identical to
//! sweeping the assembled netlist — which the crate's property tests
//! assert.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use axmul_core::behavioral::{combine_products, Summation};
use axmul_core::{mask_for, Multiplier};
use axmul_fabric::area::AreaReport;
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::cost::{Characterizer, NetlistCost};
use axmul_fabric::{FabricError, Netlist};
use axmul_metrics::{ErrorStats, StatsBuilder};

/// Version of the characterization algorithm, mixed into every
/// persisted record's hash. Bump it whenever a change alters the float
/// values a build produces (e.g. the wide-lane energy rework moved the
/// weight fold to the end of the run, changing `energy_per_op`/`edp`
/// in the last bits) so stale records rebuild instead of silently
/// serving the old numbers.
const CHAR_ALGO_VERSION: u64 = 2;

use crate::config::Config;
use crate::store::{netlist_fingerprint, DiskStore, StoreError, StoredChar};

/// Fully-characterized configuration block: netlist, hardware cost,
/// exact evaluator and error statistics.
#[derive(Debug, Clone)]
pub struct BlockChar {
    /// Canonical configuration key this record describes.
    pub key: String,
    /// Operand width in bits.
    pub bits: u32,
    /// The assembled structural netlist.
    pub netlist: Arc<Netlist>,
    /// Area / timing / energy of the netlist.
    pub cost: NetlistCost,
    /// Error statistics: exhaustive for widths ≤ 8 bits, sampled above.
    pub stats: ErrorStats,
    /// A leaf's value table, or the quad over its children's
    /// evaluators.
    node: EvalNode,
    /// An 8-bit quad's value table, composed on first use.
    quad_table: OnceLock<Arc<Vec<u32>>>,
}

impl BlockChar {
    fn new(
        key: &str,
        bits: u32,
        netlist: Netlist,
        cost: NetlistCost,
        stats: ErrorStats,
        node: EvalNode,
    ) -> Self {
        BlockChar {
            key: key.to_string(),
            bits,
            netlist: Arc::new(netlist),
            cost,
            stats,
            node,
            quad_table: OnceLock::new(),
        }
    }

    /// A cheap, exact behavioral evaluator of this block (value-table
    /// lookups at ≤ 8 bits, recursive table composition above). For an
    /// 8-bit quad the first call builds its value table
    /// ([`BlockChar::table`]).
    #[must_use]
    pub fn multiplier(&self) -> ComposedMultiplier {
        ComposedMultiplier {
            bits: self.bits,
            name: self.key.clone(),
            node: self.eval_node(),
        }
    }

    /// Exhaustive value table (`table[(b << bits) | a]`) for widths
    /// ≤ 8 bits; `None` above. An 8-bit quad composes its table from
    /// its leaf tables on the first call and keeps it.
    #[must_use]
    pub fn table(&self) -> Option<&Arc<Vec<u32>>> {
        match &self.node {
            EvalNode::Table { table, .. } => Some(table),
            EvalNode::Quad { summation, m, sub } if self.bits <= 8 => {
                Some(self.quad_table.get_or_init(|| {
                    let leaves = leaf_tables(sub);
                    let row_len = 1usize << self.bits;
                    let mut table = vec![0u32; row_len * row_len];
                    for (b, row) in table.chunks_exact_mut(row_len).enumerate() {
                        compose_row(b, leaves, *m, *summation, row);
                    }
                    Arc::new(table)
                }))
            }
            EvalNode::Quad { .. } => None,
        }
    }

    /// The evaluator a parent composes this block through: its value
    /// table at ≤ 8 bits (built here if need be), the quad above.
    fn eval_node(&self) -> EvalNode {
        match self.table() {
            Some(table) => EvalNode::Table {
                bits: self.bits,
                table: Arc::clone(table),
            },
            None => self.node.clone(),
        }
    }
}

/// Exact behavioral evaluator of a configuration, backed by the
/// cache's memoized value tables. Implements [`Multiplier`], so it
/// plugs into `axmul-metrics` and application-level simulation.
#[derive(Debug, Clone)]
pub struct ComposedMultiplier {
    bits: u32,
    name: String,
    node: EvalNode,
}

#[derive(Debug, Clone)]
enum EvalNode {
    /// Exhaustive table, indexed `(b << bits) | a`.
    Table { bits: u32, table: Arc<Vec<u32>> },
    /// Recursive composition of four half-width evaluators.
    Quad {
        summation: Summation,
        m: u32,
        sub: Box<[EvalNode; 4]>,
    },
}

impl EvalNode {
    fn eval(&self, a: u64, b: u64) -> u64 {
        match self {
            EvalNode::Table { bits, table } => table[((b as usize) << bits) | a as usize].into(),
            EvalNode::Quad { summation, m, sub } => {
                let mask = mask_for(*m);
                let (al, ah) = (a & mask, a >> m);
                let (bl, bh) = (b & mask, b >> m);
                combine_products(
                    sub[0].eval(al, bl),
                    sub[1].eval(ah, bl),
                    sub[2].eval(al, bh),
                    sub[3].eval(ah, bh),
                    *m,
                    *summation,
                )
            }
        }
    }
}

/// The four `m`-bit leaf tables an 8-bit quad composes (`LEAF_BITS`
/// is 4, so an 8-bit quad's children are always leaves).
fn leaf_tables(sub: &[EvalNode; 4]) -> [&[u32]; 4] {
    sub.each_ref().map(|node| match node {
        EvalNode::Table { table, .. } => table.as_slice(),
        EvalNode::Quad { .. } => unreachable!("an 8-bit quad's children are 4-bit leaves"),
    })
}

/// Row `b` of a quad's value table (`row[a]`, `a = 0..2^(2m)`),
/// composed from its children's `m`-bit tables `[ll, hl, lh, hh]`.
/// Shared by the statistics sweep and the on-demand table, so both see
/// the same products.
fn compose_row(
    b: usize,
    [ll, hl, lh, hh]: [&[u32]; 4],
    m: u32,
    summation: Summation,
    row: &mut [u32],
) {
    let half = 1usize << m;
    let (bl, bh) = (b & (half - 1), b >> m);
    let r_ll = &ll[bl << m..][..half];
    let r_hl = &hl[bl << m..][..half];
    let r_lh = &lh[bh << m..][..half];
    let r_hh = &hh[bh << m..][..half];
    for (ah, out) in row.chunks_exact_mut(half).enumerate() {
        let (p_hl, p_hh) = (u64::from(r_hl[ah]), u64::from(r_hh[ah]));
        for ((p, &p_ll), &p_lh) in out.iter_mut().zip(r_ll).zip(r_lh) {
            *p = combine_products(p_ll.into(), p_hl, p_lh.into(), p_hh, m, summation) as u32;
        }
    }
}

/// The DSE hot loop: exhaustive error statistics of an 8-bit quad over
/// its leaf tables, one composed operand row at a time, without
/// building its value table. Rows go `b = 0..2^bits` with `a` the fast
/// axis — the canonical sweep order — so the statistics are
/// bit-identical to [`ErrorStats::exhaustive`] over the quad.
fn quad_stats(
    name: &str,
    bits: u32,
    m: u32,
    summation: Summation,
    leaves: [&[u32]; 4],
) -> ErrorStats {
    let mut row = vec![0u32; 1usize << bits];
    let mut sb = StatsBuilder::new();
    for b in 0..1usize << bits {
        compose_row(b, leaves, m, summation, &mut row);
        sb.push_row(b as u64, &row);
    }
    sb.finish(name.to_string(), bits, bits)
}

impl Multiplier for ComposedMultiplier {
    fn a_bits(&self) -> u32 {
        self.bits
    }
    fn b_bits(&self) -> u32 {
        self.bits
    }
    fn multiply(&self, a: u64, b: u64) -> u64 {
        let mask = mask_for(self.bits);
        self.node.eval(a & mask, b & mask)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Thread-safe memoization cache of sub-block characterizations.
///
/// Shared by reference across the worker pool; lookups and inserts are
/// internally synchronized, and hit/miss counters are atomic.
#[derive(Debug)]
pub struct CharCache {
    characterizer: Characterizer,
    /// Number of sampled operand pairs for widths > 8 bits.
    samples: u64,
    /// Seed of the sampled-stats stream.
    sample_seed: u64,
    map: Mutex<HashMap<String, Arc<BlockChar>>>,
    store: Option<Arc<DiskStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    store_failures: AtomicU64,
    last_store_error: Mutex<Option<String>>,
    time_sta_ns: AtomicU64,
    time_energy_ns: AtomicU64,
    time_error_ns: AtomicU64,
}

/// Cumulative time split of the characterizations a [`CharCache`] has
/// built, by phase (see [`CharCache::time_breakdown`]). Each phase sums
/// the time of every build, whichever thread ran it, so with several
/// threads building at once it exceeds the wall-clock time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CharTimeBreakdown {
    /// Error-statistics sweeps (exhaustive value tables / sampling).
    pub error: Duration,
    /// Packed-stimulus energy measurements.
    pub energy: Duration,
    /// Static timing analysis.
    pub sta: Duration,
}

/// Why restoring a persisted record failed. Store-level failures fall
/// back to a rebuild; fabric failures are real and propagate.
enum RestoreError {
    Store(StoreError),
    Fabric(FabricError),
}

impl From<StoreError> for RestoreError {
    fn from(e: StoreError) -> Self {
        RestoreError::Store(e)
    }
}

impl CharCache {
    /// Creates an empty cache with 100 000 sampled pairs for wide
    /// blocks.
    #[must_use]
    pub fn new(characterizer: Characterizer) -> Self {
        CharCache {
            characterizer,
            samples: 100_000,
            sample_seed: 0x5EED,
            map: Mutex::new(HashMap::new()),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            last_store_error: Mutex::new(None),
            time_sta_ns: AtomicU64::new(0),
            time_energy_ns: AtomicU64::new(0),
            time_error_ns: AtomicU64::new(0),
        }
    }

    /// Overrides the sampling policy for widths > 8 bits.
    #[must_use]
    pub fn with_sampling(mut self, samples: u64, seed: u64) -> Self {
        self.samples = samples;
        self.sample_seed = seed;
        self
    }

    /// Backs the cache with a persistent on-disk store: in-memory
    /// misses first consult the store (skipping characterization on a
    /// hit), and freshly built records are persisted for the next
    /// process. Restored characterizations are bit-identical to built
    /// ones; any unreadable, corrupt or stale record falls back to a
    /// clean rebuild (counted by [`CharCache::store_failures`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<DiskStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The backing persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Characterizes `cfg`, reusing every already-characterized
    /// sub-block (including `cfg` itself on repeat queries).
    ///
    /// # Errors
    ///
    /// Propagates netlist simulation errors.
    pub fn characterize(&self, cfg: &Config) -> Result<Arc<BlockChar>, FabricError> {
        let key = cfg.key();
        if let Some(hit) = self.map.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let record = match self.restore(cfg, &key) {
            Ok(Some(rec)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Arc::new(rec)
            }
            Ok(None) => Arc::new(self.build_and_persist(cfg, &key)?),
            Err(RestoreError::Fabric(e)) => return Err(e),
            Err(RestoreError::Store(e)) => {
                // Truncated, corrupt, version-mismatched or stale
                // record: rebuild cleanly and overwrite it.
                self.store_failures.fetch_add(1, Ordering::Relaxed);
                *self.last_store_error.lock().expect("store error lock") = Some(e.to_string());
                Arc::new(self.build_and_persist(cfg, &key)?)
            }
        };
        self.map
            .lock()
            .expect("cache lock")
            .entry(key)
            .or_insert_with(|| Arc::clone(&record));
        Ok(record)
    }

    /// Attempts to rebuild a [`BlockChar`] from the persistent store:
    /// netlist reassembled from the key, leaf tables read back, quad
    /// tables recomposed exactly from (recursively restored) children,
    /// cost and stats taken from the record. `Ok(None)` = not stored.
    fn restore(&self, cfg: &Config, key: &str) -> Result<Option<BlockChar>, RestoreError> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let Some(rec) = store.load(key)? else {
            return Ok(None);
        };
        let bits = cfg.bits();
        if rec.bits != bits {
            return Err(StoreError::Corrupt(format!(
                "record width {} does not match key width {bits}",
                rec.bits
            ))
            .into());
        }
        let netlist = cfg.assemble();
        let expected = self.record_hash(&netlist, bits);
        if rec.netlist_hash != expected {
            return Err(StoreError::StaleNetlist {
                expected,
                found: rec.netlist_hash,
            }
            .into());
        }
        let node = match cfg {
            Config::Leaf(_) => {
                let Some(table) = rec.table.clone() else {
                    return Err(StoreError::Corrupt("leaf record without table".into()).into());
                };
                if table.len() != 1usize << (2 * bits) {
                    return Err(StoreError::Corrupt(format!(
                        "leaf table has {} entries, expected {}",
                        table.len(),
                        1usize << (2 * bits)
                    ))
                    .into());
                }
                EvalNode::Table {
                    bits,
                    table: Arc::new(table),
                }
            }
            Config::Quad { summation, sub } => {
                let children = [
                    self.characterize(&sub[0]).map_err(RestoreError::Fabric)?,
                    self.characterize(&sub[1]).map_err(RestoreError::Fabric)?,
                    self.characterize(&sub[2]).map_err(RestoreError::Fabric)?,
                    self.characterize(&sub[3]).map_err(RestoreError::Fabric)?,
                ];
                EvalNode::Quad {
                    summation: *summation,
                    m: bits / 2,
                    sub: Box::new(children.each_ref().map(|c| c.eval_node())),
                }
            }
        };
        let cost = NetlistCost {
            area: AreaReport {
                luts: rec.luts as usize,
                carry4s: rec.carry4s as usize,
                wasted_sites: rec.wasted_sites as usize,
                dead_outputs: rec.dead_outputs as usize,
                ignored_pins: rec.ignored_pins as usize,
            },
            critical_path_ns: rec.critical_path_ns,
            energy_per_op: rec.energy_per_op,
            edp: rec.edp,
        };
        Ok(Some(BlockChar::new(
            key,
            bits,
            netlist,
            cost,
            rec.stats.clone(),
            node,
        )))
    }

    /// Per-record version hash: the structural netlist fingerprint
    /// mixed with [`CHAR_ALGO_VERSION`], plus the sampling policy for
    /// widths whose statistics are sampled rather than exhaustive.
    fn record_hash(&self, netlist: &Netlist, bits: u32) -> u64 {
        let mut h = netlist_fingerprint(netlist);
        let mut mix = |v: u64| {
            h ^= v;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
        };
        mix(CHAR_ALGO_VERSION);
        if 2 * bits > 16 {
            mix(self.samples);
            mix(self.sample_seed);
        }
        h
    }

    fn build_and_persist(&self, cfg: &Config, key: &str) -> Result<BlockChar, FabricError> {
        self.builds.fetch_add(1, Ordering::Relaxed);
        let block = self.build(cfg, key)?;
        if let Some(store) = &self.store {
            // Leaf value tables are persisted; quad tables are cheap to
            // recompose from children, so only stats/cost are stored.
            let table = match cfg {
                Config::Leaf(_) => block.table().map(|t| t.to_vec()),
                Config::Quad { .. } => None,
            };
            let rec = StoredChar {
                key: key.to_string(),
                bits: block.bits,
                netlist_hash: self.record_hash(&block.netlist, block.bits),
                luts: block.cost.area.luts as u64,
                carry4s: block.cost.area.carry4s as u64,
                wasted_sites: block.cost.area.wasted_sites as u64,
                dead_outputs: block.cost.area.dead_outputs as u64,
                ignored_pins: block.cost.area.ignored_pins as u64,
                critical_path_ns: block.cost.critical_path_ns,
                energy_per_op: block.cost.energy_per_op,
                edp: block.cost.edp,
                stats: block.stats.clone(),
                table,
            };
            if store.save(&rec).is_err() {
                self.store_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(block)
    }

    fn build(&self, cfg: &Config, key: &str) -> Result<BlockChar, FabricError> {
        let bits = cfg.bits();
        // Each block is compiled into the fabric's bit-sliced program
        // exactly once; the leaf value-table sweep and the
        // energy-characterization stimulus both run over that program.
        let (netlist, node, prog) = match cfg {
            Config::Leaf(leaf) => {
                let nl = leaf.netlist();
                let prog = CompiledNetlist::compile(&nl);
                let mut table = vec![0u32; 1usize << (2 * bits)];
                prog.for_each_operand_pair_in(0..1u64 << (2 * bits), |a, b, out| {
                    table[((b as usize) << bits) | a as usize] = out[0] as u32;
                })?;
                let node = EvalNode::Table {
                    bits,
                    table: Arc::new(table),
                };
                (nl, node, prog)
            }
            Config::Quad { summation, sub } => {
                let subs = [
                    self.characterize(&sub[0])?,
                    self.characterize(&sub[1])?,
                    self.characterize(&sub[2])?,
                    self.characterize(&sub[3])?,
                ];
                let nl = axmul_core::structural::compose_quad_netlist(
                    key.to_string(),
                    &subs[0].netlist,
                    &subs[1].netlist,
                    &subs[2].netlist,
                    &subs[3].netlist,
                    *summation,
                );
                // Composing a wide quad builds its 8-bit children's value
                // tables; that counts as error-sweep time.
                let t_sub = Instant::now();
                let sub = Box::new(subs.each_ref().map(|s| s.eval_node()));
                self.add_error_time(t_sub);
                let quad = EvalNode::Quad {
                    summation: *summation,
                    m: bits / 2,
                    sub,
                };
                let prog = CompiledNetlist::compile(&nl);
                (nl, quad, prog)
            }
        };
        let (cost, char_times) = self.characterizer.characterize_timed(&netlist, &prog)?;
        self.time_sta_ns
            .fetch_add(char_times.sta.as_nanos() as u64, Ordering::Relaxed);
        self.time_energy_ns
            .fetch_add(char_times.energy.as_nanos() as u64, Ordering::Relaxed);
        let t_err = Instant::now();
        let stats = match &node {
            EvalNode::Quad { summation, m, sub } if bits <= 8 => {
                quad_stats(key, bits, *m, *summation, leaf_tables(sub))
            }
            node => {
                let evaluator = ComposedMultiplier {
                    bits,
                    name: key.to_string(),
                    node: node.clone(),
                };
                if 2 * bits <= 16 {
                    ErrorStats::exhaustive(&evaluator)
                } else {
                    ErrorStats::sampled(&evaluator, self.samples, self.sample_seed)
                }
            }
        };
        self.add_error_time(t_err);
        Ok(BlockChar::new(key, bits, netlist, cost, stats, node))
    }

    fn add_error_time(&self, since: Instant) {
        self.time_error_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// In-memory cache misses so far. A miss is either restored from
    /// the persistent store ([`CharCache::disk_hits`]) or characterized
    /// from scratch ([`CharCache::builds`]).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// In-memory misses served from the persistent store without any
    /// recharacterization.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Characterizations actually computed (netlist sweeps + energy
    /// stimulus). Zero on a fully warm store.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Cumulative time split of the characterizations this cache has
    /// built: error-statistics sweeps vs energy measurements vs STA.
    /// Summed across the threads that built them, so it is wall-clock
    /// only when one thread builds. Restores and in-memory hits add
    /// nothing — the split covers actual compute only (the error phase
    /// includes composing an 8-bit child's value table for a wider
    /// parent).
    pub fn time_breakdown(&self) -> CharTimeBreakdown {
        CharTimeBreakdown {
            error: Duration::from_nanos(self.time_error_ns.load(Ordering::Relaxed)),
            energy: Duration::from_nanos(self.time_energy_ns.load(Ordering::Relaxed)),
            sta: Duration::from_nanos(self.time_sta_ns.load(Ordering::Relaxed)),
        }
    }

    /// Store records that could not be used (unreadable, truncated,
    /// corrupt, stale) or written; each one fell back to a clean
    /// rebuild / was skipped.
    pub fn store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }

    /// Human-readable description of the most recent store failure,
    /// for diagnostics (e.g. a daemon's stats endpoint).
    pub fn last_store_error(&self) -> Option<String> {
        self.last_store_error
            .lock()
            .expect("store error lock")
            .clone()
    }

    /// `hits / (hits + misses)`, or 0 before the first query.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of distinct sub-blocks characterized.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Leaf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every homogeneous 8×8 quad plus seeded-random heterogeneous ones.
    fn stratified_8x8() -> Vec<Config> {
        let mut configs: Vec<Config> = [Summation::Accurate, Summation::CarryFree]
            .into_iter()
            .flat_map(|s| Leaf::ALL.map(|leaf| Config::uniform(Config::Leaf(leaf), s)))
            .collect();
        let mut rng = StdRng::seed_from_u64(0xD5E);
        configs.extend((0..4).map(|_| Config::random(8, &mut rng)));
        configs
    }

    /// Keys of the cached 8-bit blocks whose value table exists.
    fn built_8x8_tables(cache: &CharCache) -> Vec<String> {
        let mut keys: Vec<String> = cache
            .map
            .lock()
            .unwrap()
            .values()
            .filter(|c| c.bits == 8 && c.quad_table.get().is_some())
            .map(|c| c.key.clone())
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn characterizing_8x8_builds_no_table_and_tables_match_the_netlist() {
        let cache = CharCache::new(Characterizer::virtex7());
        let configs = stratified_8x8();
        let blocks: Vec<_> = configs
            .iter()
            .map(|cfg| cache.characterize(cfg).unwrap())
            .collect();
        assert!(built_8x8_tables(&cache).is_empty());
        for c in &blocks {
            let table = c.table().expect("8-bit blocks have a table");
            let mut swept = vec![u32::MAX; 1 << 16];
            CompiledNetlist::compile(&c.netlist)
                .for_each_operand_pair_in(0..1 << 16, |a, b, out| {
                    swept[((b as usize) << 8) | a as usize] = out[0] as u32;
                })
                .unwrap();
            assert!(**table == swept, "table of {} diverges", c.key);
        }
    }

    #[test]
    fn a_16x16_build_builds_exactly_its_8x8_children_tables() {
        let cache = CharCache::new(Characterizer::virtex7()).with_sampling(1000, 7);
        let children: Vec<Config> = ["(a A A A A)", "(c X T1 T2 T3)", "(a T3 A X X)"]
            .iter()
            .map(|k| k.parse().unwrap())
            .collect();
        let bystander: Config = "(c A A A A)".parse().unwrap();
        for cfg in children.iter().chain([&bystander]) {
            cache.characterize(cfg).unwrap();
        }
        let (builds, hits) = (cache.builds(), cache.hits());
        let parent = Config::Quad {
            summation: Summation::CarryFree,
            sub: Box::new([
                children[0].clone(),
                children[1].clone(),
                children[2].clone(),
                children[0].clone(),
            ]),
        };
        cache.characterize(&parent).unwrap();
        // One build for the parent and one hit per quadrant: composing
        // the children's tables is neither.
        assert_eq!(cache.builds(), builds + 1);
        assert_eq!(cache.hits(), hits + 4);
        let mut expected: Vec<String> = children.iter().map(Config::key).collect();
        expected.sort();
        assert_eq!(built_8x8_tables(&cache), expected);
    }
}
