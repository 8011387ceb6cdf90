//! Vertical union of same-shaped tables (multi-source fan-in, §3.4).

use crate::error::{Result, TabularError};
use crate::table::Table;

/// Concatenate tables top to bottom; schemas must share column names in
/// order, types widen per the lossy lattice.
pub fn union_all(tables: &[Table]) -> Result<Table> {
    if tables.is_empty() {
        return Err(TabularError::InvalidOperation(
            "union of zero tables".into(),
        ));
    }
    Table::concat_all(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::row;

    #[test]
    fn unions_and_widens() {
        let a = Table::from_rows(&["x", "y"], &[row![1i64, "a"]]).unwrap();
        let b = Table::from_rows(&["x", "y"], &[row![2.5, "b"]]).unwrap();
        let u = union_all(&[a, b]).unwrap();
        assert_eq!(u.num_rows(), 2);
        assert_eq!(
            u.schema().field("x").unwrap().data_type(),
            DataType::Float64
        );
    }

    #[test]
    fn zero_tables_is_an_error() {
        assert!(union_all(&[]).is_err());
    }

    #[test]
    fn single_table_identity() {
        let a = Table::from_rows(&["x"], &[row![1i64]]).unwrap();
        let u = union_all(std::slice::from_ref(&a)).unwrap();
        assert_eq!(u, a);
    }

    #[test]
    fn mismatched_names_error() {
        let a = Table::from_rows(&["x"], &[row![1i64]]).unwrap();
        let b = Table::from_rows(&["z"], &[row![1i64]]).unwrap();
        assert!(union_all(&[a, b]).is_err());
    }
}
