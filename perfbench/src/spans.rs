//! Spans recorded by the traced replica, their self times, and the
//! percentile rule every reported quantile follows.

/// The layer a span times.  `Sweep` is the root, `Batch` one pool task,
/// and the rest are the calls a batch makes into the case study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Sweep,
    Batch,
    Gen,
    Render,
    Typecheck,
    Compile,
    Model,
    Run,
    Absorb,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Sweep => "sweep",
            Layer::Batch => "batch",
            Layer::Gen => "gen",
            Layer::Render => "render",
            Layer::Typecheck => "typecheck",
            Layer::Compile => "compile",
            Layer::Model => "model",
            Layer::Run => "run",
            Layer::Absorb => "absorb",
        }
    }
}

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The `worker` of a span taken on the calling thread, outside the pool.
pub const CALLER: u8 = u8::MAX;

/// One timed interval.  A span's id is its index in the span list; times
/// are nanoseconds since the sweep's start.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub parent: u32,
    pub layer: Layer,
    /// Index of the case study in the sweep's case list.
    pub case: u8,
    /// The pool worker that ran the span, numbered from 0, or [`CALLER`].
    pub worker: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.  Children that overlap one another (spans of
/// parallel workers under one parent) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| span.duration() - covered(span.start_ns, span.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reached = lo;
    for &(start, end) in intervals.iter() {
        let start = start.clamp(lo, hi).max(reached);
        let end = end.clamp(lo, hi);
        if end > start {
            total += end - start;
            reached = end;
        }
    }
    total
}

/// A quantile may be reported only when at least this many samples lie
/// beyond it; below that, the tail is a handful of outliers, not a
/// distribution.
pub const MIN_BEYOND: usize = 10;

/// A reportable quantile and the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantile {
    pub value: u64,
    pub samples: usize,
    pub beyond: usize,
}

/// The nearest-rank `percent`-th percentile of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples are strictly greater.
pub fn quantile(sorted: &[u64], percent: usize) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (percent * n).div_ceil(100).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    (beyond >= MIN_BEYOND).then_some(Quantile {
        value,
        samples: n,
        beyond,
    })
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            layer,
            case: 0,
            worker: CALLER,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&hundred, 99), None, "only one sample beyond");
        let p50 = quantile(&hundred, 50).expect("fifty beyond the median");
        assert_eq!((p50.value, p50.beyond), (50, 50));

        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(quantile(&short, 99), None, "nine beyond is one too few");
        let thousand: Vec<u64> = (1..=1000).collect();
        let p99 = quantile(&thousand, 99).expect("ten samples beyond");
        assert_eq!((p99.value, p99.samples, p99.beyond), (990, 1000, 10));
    }

    #[test]
    fn ties_at_the_quantile_do_not_count_as_beyond() {
        let mut samples = vec![7u64; 995];
        samples.extend(100..110);
        samples.sort_unstable();
        assert_eq!(quantile(&samples, 99).map(|q| q.beyond), Some(10));
        samples.pop();
        assert_eq!(quantile(&samples, 99), None);
        assert_eq!(quantile(&[], 50), None);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // sweep [0,100) ← batch A [10,60) ← gen [10,20), run [30,55)
        //               ← batch B [40,90) (another worker, overlaps A)
        let spans = [
            span(NO_PARENT, Layer::Sweep, 0, 100),
            span(0, Layer::Batch, 10, 60),
            span(1, Layer::Gen, 10, 20),
            span(1, Layer::Run, 30, 55),
            span(0, Layer::Batch, 40, 90),
        ];
        let own = self_times(&spans);
        // The sweep's children cover [10, 90) once, not 50 + 50.
        assert_eq!(own, vec![20, 15, 10, 25, 50]);
    }

    #[test]
    fn children_outside_their_parent_are_clipped() {
        let spans = [
            span(NO_PARENT, Layer::Batch, 100, 200),
            span(0, Layer::Gen, 50, 150),
            span(0, Layer::Run, 120, 180),
            span(0, Layer::Absorb, 190, 400),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 30 - 10);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
