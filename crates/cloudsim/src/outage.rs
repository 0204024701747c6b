//! Service outage schedules.
//!
//! An outage of a cloud storage service "results in a period of time
//! during which cloud storage service is unavailable. The period may be
//! hours and up to days. However, most outages will return to the normal
//! state eventually" (§III-C). We model outages as half-open virtual-time
//! windows `[start, end)`; a provider inside a window fails every op with
//! `Unavailable`. A manual override supports the Figure 6 methodology of
//! simply "setting the Windows Azure service off-line".

use std::time::Duration;

/// One unavailability window in virtual time, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// When service drops.
    pub start: Duration,
    /// When service returns.
    pub end: Duration,
}

impl OutageWindow {
    /// Creates a window; `end` must be after `start`.
    pub fn new(start: Duration, end: Duration) -> Self {
        assert!(end > start, "outage must end after it starts");
        OutageWindow { start, end }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Duration) -> bool {
        t >= self.start && t < self.end
    }

    /// Outage duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A provider's outage schedule: any number of windows plus a manual
/// "forced down" switch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutageSchedule {
    windows: Vec<OutageWindow>,
    forced_down: bool,
}

impl OutageSchedule {
    /// An always-available schedule.
    pub fn always_up() -> Self {
        OutageSchedule::default()
    }

    /// Adds a scheduled window.
    pub fn with_window(mut self, start: Duration, end: Duration) -> Self {
        self.add_window(start, end);
        self
    }

    /// Adds a scheduled window in place, merging it with any existing
    /// windows it overlaps or touches. The schedule therefore stays a
    /// sorted set of disjoint windows, and `downtime_within` never
    /// double-counts an instant claimed by two inserts.
    pub fn add_window(&mut self, start: Duration, end: Duration) {
        let mut merged = OutageWindow::new(start, end);
        let mut kept = Vec::with_capacity(self.windows.len() + 1);
        for &w in &self.windows {
            if w.end < merged.start || w.start > merged.end {
                kept.push(w);
            } else {
                merged.start = merged.start.min(w.start);
                merged.end = merged.end.max(w.end);
            }
        }
        kept.push(merged);
        kept.sort_by_key(|w| w.start);
        self.windows = kept;
    }

    /// Forces the provider down regardless of windows (Figure 6 setup).
    pub fn force_down(&mut self) {
        self.forced_down = true;
    }

    /// Clears the forced-down override.
    pub fn restore(&mut self) {
        self.forced_down = false;
    }

    /// Whether the provider is up at virtual time `t`.
    pub fn is_up(&self, t: Duration) -> bool {
        !self.forced_down && !self.windows.iter().any(|w| w.contains(t))
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }

    /// Total scheduled downtime overlapping `[from, to)` — the
    /// availability metric of the experiments. Ignores the manual switch.
    pub fn downtime_within(&self, from: Duration, to: Duration) -> Duration {
        let mut total = Duration::ZERO;
        for w in &self.windows {
            let s = w.start.max(from);
            let e = w.end.min(to);
            if e > s {
                total += e - s;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::units::{days, hours};

    #[test]
    fn window_containment_is_half_open() {
        let w = OutageWindow::new(hours(2), hours(5));
        assert!(!w.contains(hours(1)));
        assert!(w.contains(hours(2)));
        assert!(w.contains(hours(4)));
        assert!(!w.contains(hours(5)));
        assert_eq!(w.duration(), hours(3));
    }

    #[test]
    #[should_panic(expected = "end after")]
    fn inverted_window_panics() {
        let _ = OutageWindow::new(hours(5), hours(2));
    }

    #[test]
    fn schedule_with_multiple_windows() {
        let s = OutageSchedule::always_up()
            .with_window(hours(1), hours(2))
            .with_window(days(1), days(2));
        assert!(s.is_up(Duration::ZERO));
        assert!(!s.is_up(hours(1)));
        assert!(s.is_up(hours(3)));
        assert!(!s.is_up(days(1) + hours(6)));
        assert!(s.is_up(days(3)));
    }

    #[test]
    fn forced_down_overrides_everything() {
        let mut s = OutageSchedule::always_up();
        assert!(s.is_up(Duration::ZERO));
        s.force_down();
        assert!(!s.is_up(Duration::ZERO));
        assert!(!s.is_up(days(100)));
        s.restore();
        assert!(s.is_up(Duration::ZERO));
    }

    #[test]
    fn overlapping_windows_merge_on_insert() {
        let s = OutageSchedule::always_up()
            .with_window(hours(1), hours(4))
            .with_window(hours(3), hours(6))
            .with_window(hours(10), hours(11));
        assert_eq!(s.windows().len(), 2, "overlapping pair collapsed");
        assert_eq!(s.windows()[0], OutageWindow::new(hours(1), hours(6)));
        assert_eq!(s.windows()[1], OutageWindow::new(hours(10), hours(11)));
        // Downtime is counted once, not per overlapping insert.
        assert_eq!(s.downtime_within(hours(0), hours(8)), hours(5));
    }

    #[test]
    fn adjacent_and_contained_windows_merge_too() {
        let mut s = OutageSchedule::always_up();
        s.add_window(hours(1), hours(2));
        s.add_window(hours(2), hours(3)); // touching
        assert_eq!(s.windows(), &[OutageWindow::new(hours(1), hours(3))]);
        s.add_window(hours(1) + Duration::from_secs(600), hours(2)); // contained
        assert_eq!(s.windows(), &[OutageWindow::new(hours(1), hours(3))]);
        // A window bridging two separate ones swallows both.
        s.add_window(hours(5), hours(6));
        s.add_window(hours(2), hours(5) + Duration::from_secs(1));
        assert_eq!(s.windows(), &[OutageWindow::new(hours(1), hours(6))]);
    }

    #[test]
    fn merged_schedule_stays_sorted() {
        let mut s = OutageSchedule::always_up();
        s.add_window(hours(10), hours(11));
        s.add_window(hours(1), hours(2));
        s.add_window(hours(5), hours(6));
        let starts: Vec<_> = s.windows().iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![hours(1), hours(5), hours(10)]);
    }

    #[test]
    fn downtime_accounting_clips_to_range() {
        let s = OutageSchedule::always_up()
            .with_window(hours(10), hours(14))
            .with_window(hours(20), hours(30));
        // Query window covers half of the first and the start of second.
        let d = s.downtime_within(hours(12), hours(22));
        assert_eq!(d, hours(2) + hours(2));
        // Fully outside.
        assert_eq!(s.downtime_within(hours(0), hours(5)), Duration::ZERO);
        // Covering everything.
        assert_eq!(s.downtime_within(hours(0), hours(40)), hours(14));
    }
}
