//! Detection-coverage maps over the (anomaly size × detector window) grid.
//!
//! The paper's central artifacts — Figures 3 through 6 — chart, for each
//! detector, which (AS, DW) combinations yield a detection (a star),
//! which leave the detector blind, and which are undefined (AS = 1, and
//! windows below the detector's minimum). [`CoverageMap`] is that chart
//! as a value: it can be queried, combined (union / intersection),
//! compared (subset, gain) and rendered in the shape of the figures.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::EvalError;
use crate::outcome::Classification;

/// The status of one (anomaly size, detector window) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellStatus {
    /// The detector registered a maximal response in the incident span —
    /// a star in the paper's maps.
    Detect,
    /// A positive but sub-maximal response.
    Weak,
    /// Response 0 across the incident span.
    Blind,
    /// The cell is not measurable (anomaly size 1, or a window below the
    /// detector's minimum).
    Undefined,
    /// The cell's computation failed permanently (its supervised unit
    /// exhausted every retry) — rendered `!` so a degraded sweep is
    /// visible in the report instead of aborting it. Never produced by a
    /// fault-free run.
    Failed,
}

impl CellStatus {
    /// Whether the cell counts as detected.
    #[inline]
    pub const fn is_detection(self) -> bool {
        matches!(self, CellStatus::Detect)
    }

    /// Whether the cell is measurable at all. [`CellStatus::Failed`]
    /// counts as unmeasurable: its verdict was never obtained.
    #[inline]
    pub const fn is_defined(self) -> bool {
        !matches!(self, CellStatus::Undefined | CellStatus::Failed)
    }
}

impl From<Classification> for CellStatus {
    fn from(c: Classification) -> Self {
        match c {
            Classification::Blind => CellStatus::Blind,
            Classification::Weak => CellStatus::Weak,
            Classification::Capable => CellStatus::Detect,
        }
    }
}

/// A detector's detection coverage over a rectangular (AS, DW) grid.
///
/// # Examples
///
/// ```
/// use detdiv_core::{CellStatus, CoverageMap};
///
/// let mut map = CoverageMap::new("stide", 2..=4, 2..=5);
/// map.set(3, 4, CellStatus::Detect).unwrap();
/// assert!(map.detects(3, 4).unwrap());
/// assert_eq!(map.detection_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageMap {
    detector: String,
    anomaly_sizes: Vec<usize>,
    windows: Vec<usize>,
    /// Row-major by window, then anomaly size.
    cells: Vec<CellStatus>,
}

impl CoverageMap {
    /// Creates a map over `anomaly_sizes × windows`, all cells
    /// [`CellStatus::Undefined`].
    ///
    /// # Panics
    ///
    /// Panics if either range is empty.
    pub fn new(
        detector: &str,
        anomaly_sizes: std::ops::RangeInclusive<usize>,
        windows: std::ops::RangeInclusive<usize>,
    ) -> Self {
        let anomaly_sizes: Vec<usize> = anomaly_sizes.collect();
        let windows: Vec<usize> = windows.collect();
        assert!(
            !anomaly_sizes.is_empty() && !windows.is_empty(),
            "coverage grid must be non-empty"
        );
        let cells = vec![CellStatus::Undefined; anomaly_sizes.len() * windows.len()];
        CoverageMap {
            detector: detector.to_owned(),
            anomaly_sizes,
            windows,
            cells,
        }
    }

    /// The detector (or combination) this map describes.
    pub fn detector(&self) -> &str {
        &self.detector
    }

    /// The anomaly sizes of the grid, ascending.
    pub fn anomaly_sizes(&self) -> &[usize] {
        &self.anomaly_sizes
    }

    /// The detector windows of the grid, ascending.
    pub fn windows(&self) -> &[usize] {
        &self.windows
    }

    fn index(&self, anomaly_size: usize, window: usize) -> Result<usize, EvalError> {
        let ai = self
            .anomaly_sizes
            .iter()
            .position(|&a| a == anomaly_size)
            .ok_or(EvalError::CellOutOfGrid {
                anomaly_size,
                window,
            })?;
        let wi =
            self.windows
                .iter()
                .position(|&w| w == window)
                .ok_or(EvalError::CellOutOfGrid {
                    anomaly_size,
                    window,
                })?;
        Ok(wi * self.anomaly_sizes.len() + ai)
    }

    /// Sets the status of cell (AS, DW).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CellOutOfGrid`] for coordinates outside the
    /// grid.
    pub fn set(
        &mut self,
        anomaly_size: usize,
        window: usize,
        status: CellStatus,
    ) -> Result<(), EvalError> {
        let i = self.index(anomaly_size, window)?;
        self.cells[i] = status;
        Ok(())
    }

    /// The status of cell (AS, DW).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CellOutOfGrid`] for coordinates outside the
    /// grid.
    pub fn get(&self, anomaly_size: usize, window: usize) -> Result<CellStatus, EvalError> {
        Ok(self.cells[self.index(anomaly_size, window)?])
    }

    /// Whether the detector detects at (AS, DW).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::CellOutOfGrid`] for coordinates outside the
    /// grid.
    pub fn detects(&self, anomaly_size: usize, window: usize) -> Result<bool, EvalError> {
        Ok(self.get(anomaly_size, window)?.is_detection())
    }

    /// Number of cells with status [`CellStatus::Detect`].
    pub fn detection_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_detection()).count()
    }

    /// Number of defined (measurable) cells.
    pub fn defined_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_defined()).count()
    }

    /// Iterates `(anomaly_size, window, status)` over every cell.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, CellStatus)> + '_ {
        self.windows.iter().enumerate().flat_map(move |(wi, &w)| {
            self.anomaly_sizes
                .iter()
                .enumerate()
                .map(move |(ai, &a)| (a, w, self.cells[wi * self.anomaly_sizes.len() + ai]))
        })
    }

    fn same_grid(&self, other: &CoverageMap) -> bool {
        self.anomaly_sizes == other.anomaly_sizes && self.windows == other.windows
    }

    /// Whether every cell this map detects is also detected by `other`
    /// — the paper's "Stide's detection coverage is a subset of the
    /// Markov-based detector's coverage" relation (§7).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::GridMismatch`] if the grids differ.
    pub fn is_subset_of(&self, other: &CoverageMap) -> Result<bool, EvalError> {
        if !self.same_grid(other) {
            return Err(EvalError::GridMismatch);
        }
        Ok(self
            .cells
            .iter()
            .zip(&other.cells)
            .all(|(a, b)| !a.is_detection() || b.is_detection()))
    }

    /// The union coverage of two detectors deployed side by side: a cell
    /// is detected if either detects it; defined cells otherwise keep the
    /// stronger of the two verdicts (Weak over Blind); a cell undefined
    /// in both stays undefined.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::GridMismatch`] if the grids differ.
    pub fn union(&self, other: &CoverageMap) -> Result<CoverageMap, EvalError> {
        if !self.same_grid(other) {
            return Err(EvalError::GridMismatch);
        }
        let mut out = self.clone();
        out.detector = format!("{} ∪ {}", self.detector, other.detector);
        for (c, &o) in out.cells.iter_mut().zip(&other.cells) {
            *c = union_status(*c, o);
        }
        Ok(out)
    }

    /// The intersection coverage: a cell is detected only if both detect
    /// it (the alarm-confirmation scheme of §7).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::GridMismatch`] if the grids differ.
    pub fn intersection(&self, other: &CoverageMap) -> Result<CoverageMap, EvalError> {
        if !self.same_grid(other) {
            return Err(EvalError::GridMismatch);
        }
        let mut out = self.clone();
        out.detector = format!("{} ∩ {}", self.detector, other.detector);
        for (c, &o) in out.cells.iter_mut().zip(&other.cells) {
            *c = intersection_status(*c, o);
        }
        Ok(out)
    }

    /// How many additional cells `other` detects beyond this map — the
    /// *diversity gain* of adding `other` to this detector. Zero means
    /// the combination affords no improvement in hits (the paper's
    /// Stide + L&B finding).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::GridMismatch`] if the grids differ.
    pub fn gain_from(&self, other: &CoverageMap) -> Result<usize, EvalError> {
        if !self.same_grid(other) {
            return Err(EvalError::GridMismatch);
        }
        Ok(self
            .cells
            .iter()
            .zip(&other.cells)
            .filter(|(a, b)| !a.is_detection() && b.is_detection())
            .count())
    }

    /// Jaccard similarity of the two detection regions (1.0 when both
    /// detect exactly the same cells; 0.0 when disjoint; 1.0 for two
    /// empty regions by convention).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::GridMismatch`] if the grids differ.
    pub fn jaccard(&self, other: &CoverageMap) -> Result<f64, EvalError> {
        if !self.same_grid(other) {
            return Err(EvalError::GridMismatch);
        }
        let mut inter = 0usize;
        let mut union = 0usize;
        for (a, b) in self.cells.iter().zip(&other.cells) {
            match (a.is_detection(), b.is_detection()) {
                (true, true) => {
                    inter += 1;
                    union += 1;
                }
                (true, false) | (false, true) => union += 1,
                (false, false) => {}
            }
        }
        Ok(if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        })
    }

    /// Renders the map in the orientation of the paper's Figures 3–6:
    /// detector window on the y-axis (largest at the top), anomaly size
    /// on the x-axis; `*` = detection, `.` = blind, `o` = weak, blank =
    /// undefined.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Performance map of {} (y: detector window, x: anomaly size)\n",
            self.detector
        ));
        for (wi, &w) in self.windows.iter().enumerate().rev() {
            out.push_str(&format!("{w:>4} |"));
            for ai in 0..self.anomaly_sizes.len() {
                let cell = self.cells[wi * self.anomaly_sizes.len() + ai];
                let ch = match cell {
                    CellStatus::Detect => " *",
                    CellStatus::Weak => " o",
                    CellStatus::Blind => " .",
                    CellStatus::Undefined => "  ",
                    CellStatus::Failed => " !",
                };
                out.push_str(ch);
            }
            out.push('\n');
        }
        out.push_str("     +");
        out.push_str(&"--".repeat(self.anomaly_sizes.len()));
        out.push('\n');
        out.push_str("      ");
        for &a in &self.anomaly_sizes {
            out.push_str(&format!("{a:>2}"));
        }
        out.push('\n');
        out
    }
}

fn union_status(a: CellStatus, b: CellStatus) -> CellStatus {
    use CellStatus::*;
    match (a, b) {
        // A detection from either side stands on its own.
        (Detect, _) | (_, Detect) => Detect,
        // Otherwise a failed operand taints the combination: the true
        // union could be anything, so the degradation stays visible.
        (Failed, _) | (_, Failed) => Failed,
        (Weak, _) | (_, Weak) => Weak,
        (Blind, _) | (_, Blind) => Blind,
        (Undefined, Undefined) => Undefined,
    }
}

fn intersection_status(a: CellStatus, b: CellStatus) -> CellStatus {
    use CellStatus::*;
    match (a, b) {
        (Undefined, _) | (_, Undefined) => Undefined,
        // Alarm confirmation cannot confirm through a failed operand.
        (Failed, _) | (_, Failed) => Failed,
        (Detect, Detect) => Detect,
        (Blind, _) | (_, Blind) => Blind,
        _ => Weak,
    }
}

impl fmt::Display for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(name: &str, detect: &[(usize, usize)]) -> CoverageMap {
        let mut m = CoverageMap::new(name, 2..=4, 2..=4);
        for a in 2..=4 {
            for w in 2..=4 {
                m.set(a, w, CellStatus::Blind).unwrap();
            }
        }
        for &(a, w) in detect {
            m.set(a, w, CellStatus::Detect).unwrap();
        }
        m
    }

    #[test]
    fn set_get_roundtrip_and_bounds() {
        let mut m = CoverageMap::new("d", 2..=3, 2..=3);
        assert_eq!(m.get(2, 2).unwrap(), CellStatus::Undefined);
        m.set(2, 3, CellStatus::Weak).unwrap();
        assert_eq!(m.get(2, 3).unwrap(), CellStatus::Weak);
        assert!(matches!(
            m.get(9, 2),
            Err(EvalError::CellOutOfGrid {
                anomaly_size: 9,
                ..
            })
        ));
        assert!(m.set(2, 9, CellStatus::Blind).is_err());
    }

    #[test]
    fn counts_and_iter() {
        let m = filled("d", &[(2, 2), (3, 3)]);
        assert_eq!(m.detection_count(), 2);
        assert_eq!(m.defined_count(), 9);
        assert_eq!(m.iter().count(), 9);
        assert_eq!(m.iter().filter(|(_, _, c)| c.is_detection()).count(), 2);
    }

    #[test]
    fn subset_relation() {
        let small = filled("stide", &[(2, 3), (2, 4)]);
        let big = filled("markov", &[(2, 3), (2, 4), (3, 4)]);
        assert!(small.is_subset_of(&big).unwrap());
        assert!(!big.is_subset_of(&small).unwrap());
        assert!(small.is_subset_of(&small).unwrap());
    }

    #[test]
    fn union_and_intersection() {
        let a = filled("a", &[(2, 2), (3, 3)]);
        let b = filled("b", &[(3, 3), (4, 4)]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.detection_count(), 3);
        assert!(u.detector().contains('∪'));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.detection_count(), 1);
        assert!(i.detects(3, 3).unwrap());
    }

    #[test]
    fn union_prefers_stronger_status() {
        let mut a = CoverageMap::new("a", 2..=2, 2..=2);
        let mut b = CoverageMap::new("b", 2..=2, 2..=2);
        a.set(2, 2, CellStatus::Weak).unwrap();
        b.set(2, 2, CellStatus::Blind).unwrap();
        assert_eq!(a.union(&b).unwrap().get(2, 2).unwrap(), CellStatus::Weak);
        // Undefined in one, defined in the other: defined wins.
        let c = CoverageMap::new("c", 2..=2, 2..=2);
        assert_eq!(a.union(&c).unwrap().get(2, 2).unwrap(), CellStatus::Weak);
    }

    #[test]
    fn gain_measures_added_detections() {
        let stide = filled("stide", &[(2, 2), (2, 3)]);
        let lb = filled("l&b", &[]); // blind everywhere
        let markov = filled("markov", &[(2, 2), (2, 3), (3, 3), (4, 4)]);
        assert_eq!(stide.gain_from(&lb).unwrap(), 0); // no improvement
        assert_eq!(stide.gain_from(&markov).unwrap(), 2);
        assert_eq!(markov.gain_from(&stide).unwrap(), 0); // subset adds nothing
    }

    #[test]
    fn jaccard_values() {
        let a = filled("a", &[(2, 2), (3, 3)]);
        let b = filled("b", &[(3, 3), (4, 4)]);
        assert!((a.jaccard(&b).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.jaccard(&a).unwrap(), 1.0);
        let empty = filled("e", &[]);
        assert_eq!(empty.jaccard(&empty).unwrap(), 1.0);
        assert_eq!(a.jaccard(&empty).unwrap(), 0.0);
    }

    #[test]
    fn grid_mismatch_is_rejected() {
        let a = CoverageMap::new("a", 2..=3, 2..=3);
        let b = CoverageMap::new("b", 2..=4, 2..=3);
        assert!(matches!(a.union(&b), Err(EvalError::GridMismatch)));
        assert!(matches!(a.is_subset_of(&b), Err(EvalError::GridMismatch)));
        assert!(matches!(a.jaccard(&b), Err(EvalError::GridMismatch)));
        assert!(matches!(a.gain_from(&b), Err(EvalError::GridMismatch)));
    }

    #[test]
    fn render_shape() {
        let m = filled("stide", &[(2, 2)]);
        let r = m.render();
        assert!(r.contains("Performance map of stide"));
        // Largest window rendered first.
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[1].starts_with("   4"));
        assert!(lines[3].starts_with("   2"));
        assert!(lines[3].contains('*'));
        // Display delegates to render.
        assert_eq!(m.to_string(), r);
    }

    #[test]
    fn classification_conversion() {
        assert_eq!(CellStatus::from(Classification::Blind), CellStatus::Blind);
        assert_eq!(CellStatus::from(Classification::Weak), CellStatus::Weak);
        assert_eq!(
            CellStatus::from(Classification::Capable),
            CellStatus::Detect
        );
    }

    #[test]
    fn failed_cells_are_undetected_unmeasured_and_rendered() {
        let mut m = filled("degraded", &[(2, 2)]);
        m.set(3, 3, CellStatus::Failed).unwrap();
        assert!(!CellStatus::Failed.is_detection());
        assert!(!CellStatus::Failed.is_defined());
        assert_eq!(m.detection_count(), 1);
        assert_eq!(m.defined_count(), 8, "the failed cell is unmeasured");
        assert!(m.render().contains(" !"), "render: {}", m.render());
        // Union: a detection stands on its own; otherwise Failed taints.
        let other = filled("other", &[(3, 3), (4, 4)]);
        let u = m.union(&other).unwrap();
        assert_eq!(u.get(3, 3).unwrap(), CellStatus::Detect);
        let mut blind_other = filled("blind", &[]);
        blind_other.set(3, 3, CellStatus::Blind).unwrap();
        assert_eq!(
            m.union(&blind_other).unwrap().get(3, 3).unwrap(),
            CellStatus::Failed
        );
        // Intersection cannot confirm through a failed operand.
        assert_eq!(
            m.intersection(&other).unwrap().get(3, 3).unwrap(),
            CellStatus::Failed
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = CoverageMap::new("d", 3..=2, 2..=3);
    }
}
