//! The served workload's request mix: a seeded, skewed draw over a
//! fixed pool of design points.
//!
//! The pool (8 applications × 3 designs × 3 mesh sizes = 72 points) is
//! larger than the server's compiled-design cache, so the FIFO cache
//! keeps evicting and some requests pay a full cold compile (NMAP
//! mapping plus preset compilation) while most are served from cache.

use smart_core::noc::DesignKind;

/// Mesh edges the served requests draw from.
pub const MESHES: [u16; 3] = [8, 12, 16];

/// Designs the served requests draw from.
pub const DESIGNS: [DesignKind; 3] = [DesignKind::Mesh, DesignKind::Smart, DesignKind::Dedicated];

/// Zipf exponent of the popularity skew over a seeded ranking of the
/// pool. Mild, so that every point is drawn and the working set stays
/// larger than the cache.
pub const ZIPF_EXPONENT: f64 = 0.5;

/// SplitMix64: a tiny, dependency-free seeded generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One point of the served design space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Application name (one of the paper's eight task graphs).
    pub app: String,
    /// Design to build.
    pub design: DesignKind,
    /// Mesh edge.
    pub mesh: u16,
}

/// Every point of the served design space, in a fixed order.
#[must_use]
pub fn pool() -> Vec<DesignPoint> {
    let mut out = Vec::new();
    for graph in smart_taskgraph::apps::all() {
        for design in DESIGNS {
            for mesh in MESHES {
                out.push(DesignPoint {
                    app: graph.name().to_owned(),
                    design,
                    mesh,
                });
            }
        }
    }
    out
}

/// Seed of the fixed popularity ranking. The ranking is part of the
/// workload, not of the run: every run seed sees the same popular
/// points, and varies only the draws and the plan seeds.
const RANKING_SEED: u64 = 0x5EED;

/// Draws `(design point, plan seed)` pairs: the point from a Zipf
/// popularity over a fixed shuffled ranking of [`pool`], the plan seed
/// fresh for every request. A pure function of the seed.
#[derive(Debug, Clone)]
pub struct Picker {
    ranked: Vec<DesignPoint>,
    cumulative: Vec<f64>,
    rng: SplitMix64,
}

impl Picker {
    /// A picker whose draws derive from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut ranked = pool();
        // Fisher–Yates, so popularity is not ordered by application.
        let mut shuffle = SplitMix64::new(RANKING_SEED);
        for i in (1..ranked.len()).rev() {
            let j = (shuffle.next_u64() % (i as u64 + 1)) as usize;
            ranked.swap(i, j);
        }
        let weights: Vec<f64> = (1..=ranked.len())
            .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Picker {
            ranked,
            cumulative,
            rng: SplitMix64::new(seed),
        }
    }

    /// The next request's design point and plan seed.
    pub fn next_point(&mut self) -> (DesignPoint, u64) {
        let u = self.rng.next_f64();
        let i = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.ranked.len() - 1);
        (self.ranked[i].clone(), self.rng.next_u64())
    }
}
