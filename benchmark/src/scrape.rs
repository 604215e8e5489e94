//! Parser for the Prometheus text the daemon's `metrics` verb returns, and
//! the before/after arithmetic over two scrapes: the same counters, gauges
//! and histograms an operator reads.

use std::collections::BTreeMap;

/// One scrape: plain series by name, histogram buckets by family.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    /// Counters and gauges, and each histogram's `_sum` and `_count`.
    pub values: BTreeMap<String, f64>,
    /// Cumulative `(le, count)` pairs per histogram family, ascending `le`.
    pub buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

/// Parses exposition text; comment lines and lines it cannot read are
/// skipped (a scrape is diagnostic input, not something to fail a run on).
pub fn parse(text: &str) -> Scrape {
    let mut scrape = Scrape::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        match series.split_once('{') {
            Some((name, labels)) => {
                let Some(family) = name.strip_suffix("_bucket") else {
                    continue;
                };
                let le = labels
                    .trim_end_matches('}')
                    .split(',')
                    .find_map(|kv| kv.trim().strip_prefix("le=\""))
                    .map(|v| v.trim_end_matches('"'));
                let le = match le {
                    Some("+Inf") => f64::INFINITY,
                    Some(v) => match v.parse() {
                        Ok(le) => le,
                        Err(_) => continue,
                    },
                    None => continue,
                };
                scrape
                    .buckets
                    .entry(family.to_string())
                    .or_default()
                    .push((le, value));
            }
            None => {
                scrape.values.insert(series.to_string(), value);
            }
        }
    }
    for buckets in scrape.buckets.values_mut() {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    scrape
}

/// What happened between two scrapes of one daemon.
pub struct Delta<'a> {
    /// The scrape taken before the measured phase.
    pub before: &'a Scrape,
    /// The scrape taken after it.
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Increase of a counter (or of a histogram's `_sum`/`_count`).
    pub fn counter(&self, name: &str) -> f64 {
        let at = |s: &Scrape| s.values.get(name).copied().unwrap_or(0.0);
        (at(self.after) - at(self.before)).max(0.0)
    }

    /// A gauge's value in the later scrape.
    pub fn gauge(&self, name: &str) -> f64 {
        self.after.values.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of the observations a histogram took between the scrapes.
    pub fn hist_mean(&self, family: &str) -> f64 {
        let count = self.counter(&format!("{family}_count"));
        if count == 0.0 {
            return 0.0;
        }
        self.counter(&format!("{family}_sum")) / count
    }

    /// Quantile `q` of the observations between the scrapes, interpolated
    /// linearly inside the bucket it falls in, as Prometheus'
    /// `histogram_quantile` does (the daemon's buckets double, so the true
    /// value is within a factor of two). Observations past the last finite
    /// bucket report that bucket's edge.
    pub fn hist_quantile(&self, family: &str, q: f64) -> f64 {
        let Some(after) = self.after.buckets.get(family) else {
            return 0.0;
        };
        let before = self.before.buckets.get(family);
        // The daemon omits buckets above the highest one it has filled, so
        // the earlier scrape may lack an edge the later one has; counts are
        // cumulative, so the nearest edge at or below it gives the count.
        let earlier = |le: f64| {
            before
                .and_then(|b| b.iter().rev().find(|(l, _)| *l <= le))
                .map_or(0.0, |(_, c)| *c)
        };
        let total = after.last().map_or(0.0, |&(le, c)| c - earlier(le));
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let (mut low_edge, mut low_count) = (0.0, 0.0);
        for &(le, c) in after {
            let cumulative = c - earlier(le);
            if !le.is_finite() {
                break;
            }
            if cumulative >= rank {
                let inside = (rank - low_count) / (cumulative - low_count).max(f64::MIN_POSITIVE);
                return low_edge + (le - low_edge) * inside.clamp(0.0, 1.0);
            }
            (low_edge, low_count) = (le, cumulative);
        }
        low_edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP chronus_daemon_planned_total jobs planned
# TYPE chronus_daemon_planned_total counter
chronus_daemon_planned_total 10
chronus_daemon_queue_peak 3
chronus_daemon_plan_ns_bucket{le=\"1023\"} 4
chronus_daemon_plan_ns_bucket{le=\"2047\"} 10
chronus_daemon_plan_ns_bucket{le=\"+Inf\"} 10
chronus_daemon_plan_ns_sum 12000
chronus_daemon_plan_ns_count 10
";
    const AFTER: &str = "\
chronus_daemon_planned_total 110
chronus_daemon_queue_peak 2
chronus_daemon_plan_ns_bucket{le=\"1023\"} 14
chronus_daemon_plan_ns_bucket{le=\"2047\"} 100
chronus_daemon_plan_ns_bucket{le=\"4095\"} 109
chronus_daemon_plan_ns_bucket{le=\"+Inf\"} 110
chronus_daemon_plan_ns_sum 212000
chronus_daemon_plan_ns_count 110
this line is noise
";

    #[test]
    fn parses_counters_gauges_and_histograms() {
        let s = parse(BEFORE);
        assert_eq!(s.values["chronus_daemon_planned_total"], 10.0);
        assert_eq!(s.values["chronus_daemon_queue_peak"], 3.0);
        assert_eq!(s.values["chronus_daemon_plan_ns_sum"], 12_000.0);
        assert_eq!(s.values["chronus_daemon_plan_ns_count"], 10.0);
        assert_eq!(
            s.buckets["chronus_daemon_plan_ns"],
            [(1023.0, 4.0), (2047.0, 10.0), (f64::INFINITY, 10.0)]
        );
    }

    #[test]
    fn deltas_cover_only_the_interval_between_scrapes() {
        let (before, after) = (parse(BEFORE), parse(AFTER));
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.counter("chronus_daemon_planned_total"), 100.0);
        assert_eq!(d.counter("chronus_daemon_missing_total"), 0.0);
        assert_eq!(d.gauge("chronus_daemon_queue_peak"), 2.0);
        assert_eq!(d.hist_mean("chronus_daemon_plan_ns"), 2_000.0);
        // Interval buckets: <=1023: 10, <=2047: 90, <=4095: 99, +Inf: 100.
        // p50 is the 50th of 100: 40 of the 80 observations into (1023, 2047].
        assert_eq!(
            d.hist_quantile("chronus_daemon_plan_ns", 0.5),
            1023.0 + 1024.0 * 0.5
        );
        assert_eq!(d.hist_quantile("chronus_daemon_plan_ns", 0.99), 4095.0);
        // The one observation past the last finite bucket reports its edge.
        assert_eq!(d.hist_quantile("chronus_daemon_plan_ns", 1.0), 4095.0);
        assert_eq!(d.hist_quantile("chronus_daemon_absent_ns", 0.5), 0.0);
    }
}
