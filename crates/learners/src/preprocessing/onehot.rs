//! One-hot encoding of categorical (string) columns.

use nde_tabular::{Column, Table};

use crate::{LearnError, Result};

/// One-hot encoder for a single string column. Categories are learned in
/// sorted order; unseen categories (and nulls) encode to the all-zero
/// vector, which keeps downstream models total on dirty data.
#[derive(Debug, Clone, Default)]
pub struct OneHotEncoder {
    categories: Vec<String>,
}

impl OneHotEncoder {
    /// Learns the category vocabulary from `column` of `table`.
    pub fn fit(table: &Table, column: &str) -> Result<Self> {
        let col = table.column(column).map_err(|e| LearnError::Encoding {
            detail: e.to_string(),
        })?;
        let cells = col.as_str().ok_or_else(|| LearnError::Encoding {
            detail: format!("one-hot column {column:?} must be a string column"),
        })?;
        let mut categories: Vec<String> = cells.iter().flatten().cloned().collect();
        categories.sort();
        categories.dedup();
        Ok(OneHotEncoder { categories })
    }

    /// The learned categories, in encoding order.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Width of the encoded vector.
    pub fn width(&self) -> usize {
        self.categories.len()
    }

    /// The hot position of one cell: `None` for nulls and unseen
    /// categories, which encode to all zeros.
    pub fn position(&self, cell: Option<&str>) -> Option<usize> {
        let value = cell?;
        self.categories
            .binary_search_by(|c| c.as_str().cmp(value))
            .ok()
    }

    /// Encodes one cell.
    pub fn encode(&self, cell: Option<&str>) -> Vec<f64> {
        let mut out = vec![0.0; self.categories.len()];
        if let Some(pos) = self.position(cell) {
            out[pos] = 1.0;
        }
        out
    }

    /// Encodes a whole column into row vectors.
    pub fn transform(&self, table: &Table, column: &str) -> Result<Vec<Vec<f64>>> {
        let col = table.column(column).map_err(|e| LearnError::Encoding {
            detail: e.to_string(),
        })?;
        match col {
            Column::Str(cells) => Ok(cells.iter().map(|c| self.encode(c.as_deref())).collect()),
            _ => Err(LearnError::Encoding {
                detail: format!("one-hot column {column:?} must be a string column"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        Table::builder()
            .str_opt(
                "degree",
                vec![
                    Some("msc".into()),
                    Some("bsc".into()),
                    None,
                    Some("phd".into()),
                    Some("bsc".into()),
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn learns_sorted_unique_categories() {
        let enc = OneHotEncoder::fit(&demo(), "degree").unwrap();
        assert_eq!(enc.categories(), &["bsc", "msc", "phd"]);
        assert_eq!(enc.width(), 3);
    }

    #[test]
    fn encodes_known_unknown_and_null() {
        let enc = OneHotEncoder::fit(&demo(), "degree").unwrap();
        assert_eq!(enc.encode(Some("msc")), vec![0.0, 1.0, 0.0]);
        assert_eq!(enc.encode(Some("unseen")), vec![0.0, 0.0, 0.0]);
        assert_eq!(enc.encode(None), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn transform_encodes_each_row() {
        let enc = OneHotEncoder::fit(&demo(), "degree").unwrap();
        let rows = enc.transform(&demo(), "degree").unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[2], vec![0.0, 0.0, 0.0]);
        assert_eq!(rows[4], vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn non_string_column_rejected() {
        let t = Table::builder().int("x", [1]).build().unwrap();
        assert!(OneHotEncoder::fit(&t, "x").is_err());
    }
}
