//! The ETC matrix type.

use std::fmt;

/// Typed construction failure for [`EtcMatrix::try_from_rows`] and
/// [`EtcMatrix::try_from_flat`].
#[derive(Clone, Debug, PartialEq)]
pub enum EtcMatrixError {
    /// The row set is empty (no applications) or the first row is empty
    /// (no machines).
    Empty,
    /// A flat value vector's length is not `apps × machines`.
    Length {
        /// Values supplied.
        got: usize,
        /// `apps × machines`.
        expected: usize,
    },
    /// A row's length disagrees with the first row's.
    Ragged {
        /// Offending row index.
        row: usize,
        /// Machines in the offending row.
        got: usize,
        /// Machines expected (from the first row).
        expected: usize,
    },
    /// An entry is NaN, infinite, or not strictly positive.
    InvalidEntry {
        /// Application (row) index.
        app: usize,
        /// Machine (column) index.
        machine: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for EtcMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtcMatrixError::Empty => {
                write!(f, "ETC matrix needs at least one application and machine")
            }
            EtcMatrixError::Length { got, expected } => {
                write!(f, "flat ETC matrix has {got} values, expected {expected}")
            }
            EtcMatrixError::Ragged { row, got, expected } => write!(
                f,
                "ragged ETC matrix: row {row} has {got} machines, expected {expected}"
            ),
            EtcMatrixError::InvalidEntry {
                app,
                machine,
                value,
            } => write!(
                f,
                "ETC({app},{machine}) = {value} must be positive and finite"
            ),
        }
    }
}

impl std::error::Error for EtcMatrixError {}

/// An `|A| × |M|` matrix of estimated times to compute: `get(i, j)` is the
/// ETC of application `a_i` on machine `m_j`. Stored row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct EtcMatrix {
    apps: usize,
    machines: usize,
    data: Vec<f64>,
}

impl EtcMatrix {
    /// Builds a matrix from per-application rows.
    ///
    /// # Panics
    /// Panics if rows are empty, ragged, or contain non-positive or
    /// non-finite times; see [`EtcMatrix::try_from_rows`] for a fallible
    /// variant.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        Self::try_from_rows(rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`EtcMatrix::from_rows`]: rejects empty/ragged row sets and
    /// non-positive or non-finite entries with a typed [`EtcMatrixError`].
    pub fn try_from_rows(rows: Vec<Vec<f64>>) -> Result<Self, EtcMatrixError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(EtcMatrixError::Empty);
        }
        let machines = rows[0].len();
        if let Some((row, r)) = rows.iter().enumerate().find(|(_, r)| r.len() != machines) {
            return Err(EtcMatrixError::Ragged {
                row,
                got: r.len(),
                expected: machines,
            });
        }
        Self::try_from_flat(rows.len(), machines, rows.concat())
    }

    /// Builds a matrix from `apps × machines` row-major values, taking
    /// ownership of `data` without copying it. Rejects an empty shape, a
    /// length that does not match it, and non-positive or non-finite
    /// entries with a typed [`EtcMatrixError`] (the first bad entry in
    /// row-major order, as [`EtcMatrix::try_from_rows`] reports it).
    pub fn try_from_flat(
        apps: usize,
        machines: usize,
        data: Vec<f64>,
    ) -> Result<Self, EtcMatrixError> {
        if apps == 0 || machines == 0 {
            return Err(EtcMatrixError::Empty);
        }
        let expected = apps.saturating_mul(machines);
        if data.len() != expected {
            return Err(EtcMatrixError::Length {
                got: data.len(),
                expected,
            });
        }
        if let Some(k) = data.iter().position(|&v| !(v.is_finite() && v > 0.0)) {
            return Err(EtcMatrixError::InvalidEntry {
                app: k / machines,
                machine: k % machines,
                value: data[k],
            });
        }
        Ok(EtcMatrix {
            apps,
            machines,
            data,
        })
    }

    /// A matrix with every entry equal to `value` (useful in tests).
    pub fn uniform(apps: usize, machines: usize, value: f64) -> Self {
        assert!(apps > 0 && machines > 0, "empty ETC matrix");
        assert!(
            value > 0.0 && value.is_finite(),
            "invalid uniform ETC value"
        );
        EtcMatrix {
            apps,
            machines,
            data: vec![value; apps * machines],
        }
    }

    /// Number of applications `|A|`.
    pub fn apps(&self) -> usize {
        self.apps
    }

    /// Number of machines `|M|`.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The ETC of application `app` on machine `machine`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn get(&self, app: usize, machine: usize) -> f64 {
        assert!(app < self.apps, "application index {app} out of range");
        assert!(
            machine < self.machines,
            "machine index {machine} out of range"
        );
        self.data[app * self.machines + machine]
    }

    /// The row of ETCs for one application across all machines.
    pub fn row(&self, app: usize) -> &[f64] {
        assert!(app < self.apps, "application index {app} out of range");
        &self.data[app * self.machines..(app + 1) * self.machines]
    }

    /// Mutable row access (used by the consistency shapers).
    pub(crate) fn row_mut(&mut self, app: usize) -> &mut [f64] {
        assert!(app < self.apps, "application index {app} out of range");
        &mut self.data[app * self.machines..(app + 1) * self.machines]
    }

    /// The machine with the smallest ETC for `app` (the "MET machine").
    pub fn best_machine(&self, app: usize) -> usize {
        let row = self.row(app);
        row.iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("ETC is never NaN"))
            .map(|(j, _)| j)
            .expect("non-empty row")
    }

    /// Iterates over all entries as `(app, machine, value)`.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.apps).flat_map(move |i| {
            (0..self.machines).map(move |j| (i, j, self.data[i * self.machines + j]))
        })
    }

    /// All values as a flat slice (row-major).
    pub fn values(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = EtcMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.apps(), 3);
        assert_eq!(m.machines(), 2);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged() {
        EtcMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive() {
        EtcMatrix::from_rows(vec![vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one application")]
    fn rejects_empty() {
        EtcMatrix::from_rows(vec![]);
    }

    #[test]
    fn best_machine_finds_met() {
        let m = EtcMatrix::from_rows(vec![vec![5.0, 2.0, 9.0], vec![1.0, 8.0, 3.0]]);
        assert_eq!(m.best_machine(0), 1);
        assert_eq!(m.best_machine(1), 0);
    }

    #[test]
    fn uniform_matrix() {
        let m = EtcMatrix::uniform(2, 3, 7.0);
        assert!(m.entries().all(|(_, _, v)| v == 7.0));
        assert_eq!(m.entries().count(), 6);
        assert_eq!(m.values().len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        EtcMatrix::uniform(2, 2, 1.0).get(2, 0);
    }

    #[test]
    fn try_from_rows_reports_typed_errors() {
        assert_eq!(EtcMatrix::try_from_rows(vec![]), Err(EtcMatrixError::Empty));
        assert_eq!(
            EtcMatrix::try_from_rows(vec![vec![1.0, 2.0], vec![3.0]]),
            Err(EtcMatrixError::Ragged {
                row: 1,
                got: 1,
                expected: 2
            })
        );
        assert!(matches!(
            EtcMatrix::try_from_rows(vec![vec![1.0, f64::NAN]]),
            Err(EtcMatrixError::InvalidEntry {
                app: 0,
                machine: 1,
                ..
            })
        ));
        assert!(matches!(
            EtcMatrix::try_from_rows(vec![vec![1.0], vec![f64::INFINITY]]),
            Err(EtcMatrixError::InvalidEntry { app: 1, .. })
        ));
        assert!(EtcMatrix::try_from_rows(vec![vec![1.0, 2.0]]).is_ok());
    }

    #[test]
    fn flat_and_row_constructors_agree() {
        let cases: Vec<Vec<Vec<f64>>> = vec![
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![vec![1.0, 2.0], vec![3.0, f64::NAN]],
            vec![vec![1.0], vec![f64::INFINITY]],
            vec![vec![1.0, 0.0, -1.0]],
            vec![vec![]],
            vec![],
        ];
        for rows in cases {
            let apps = rows.len();
            let machines = rows.first().map_or(0, Vec::len);
            let flat = EtcMatrix::try_from_flat(apps, machines, rows.concat());
            let from_rows = EtcMatrix::try_from_rows(rows.clone());
            // NaN entries defeat `PartialEq`; compare the debug forms.
            assert_eq!(
                format!("{flat:?}"),
                format!("{from_rows:?}"),
                "rows {rows:?}"
            );
        }
        assert_eq!(
            EtcMatrix::try_from_flat(2, 2, vec![1.0; 3]),
            Err(EtcMatrixError::Length {
                got: 3,
                expected: 4
            })
        );
    }
}
