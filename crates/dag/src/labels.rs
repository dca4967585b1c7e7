//! Node labels of a graph, stored as one text buffer.

use core::fmt::{self, Write as _};

/// The node labels of a graph: one UTF-8 text buffer plus each label's
/// end offset, so a graph's labels cost two allocations whatever its node
/// count, and copying them is two `memcpy`s.
///
/// Label `i` is `text[ends[i - 1]..ends[i]]` (`ends[-1]` reads as 0). The
/// offsets are `u32`, checked on every append: one graph's label text is
/// capped at 4 GiB.
///
/// # Examples
///
/// ```
/// use hetrta_dag::Labels;
///
/// let mut labels = Labels::new();
/// labels.push("src");
/// labels.push_fmt(format_args!("t@{}", 3));
/// labels.push("");
/// assert_eq!(labels.len(), 3);
/// assert_eq!(labels.get(1), Some("t@3"));
/// assert_eq!(labels.iter().collect::<Vec<_>>(), ["src", "t@3", ""]);
/// ```
#[derive(Clone, Default)]
pub struct Labels {
    text: String,
    ends: Vec<u32>,
}

impl Labels {
    /// An empty label list.
    #[must_use]
    pub fn new() -> Self {
        Labels::default()
    }

    /// An empty label list with room for `labels` labels totalling `bytes`
    /// bytes of text.
    #[must_use]
    pub fn with_capacity(labels: usize, bytes: usize) -> Self {
        Labels {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(labels),
        }
    }

    /// Number of labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if there are no labels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total label text, in bytes.
    #[must_use]
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// Label `i`, `None` if out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)? as usize;
        Some(&self.text[self.start(i)..end])
    }

    /// Iterates over the labels in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| &self.text[self.start(i)..self.ends[i] as usize])
    }

    /// Appends a label.
    ///
    /// # Panics
    ///
    /// Panics if the label text would exceed `u32::MAX` bytes.
    pub fn push(&mut self, label: &str) {
        self.text.push_str(label);
        self.close();
    }

    /// Appends a label rendered from format arguments, writing straight
    /// into the buffer (no intermediate `String`).
    ///
    /// # Panics
    ///
    /// Panics if the label text would exceed `u32::MAX` bytes.
    pub fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.text
            .write_fmt(args)
            .expect("writing to a String cannot fail");
        self.close();
    }

    /// Appends every label of `other`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the label text would exceed `u32::MAX` bytes.
    pub fn extend_from(&mut self, other: &Labels) {
        let base = self.text.len();
        self.text.push_str(&other.text);
        checked_end(self.text.len());
        self.ends.extend(
            other
                .ends
                .iter()
                .map(|&end| checked_end(base + end as usize)),
        );
    }

    /// Replaces label `i`, shifting the text of every later label.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the label text would exceed
    /// `u32::MAX` bytes.
    pub(crate) fn set(&mut self, i: usize, label: &str) {
        let (start, end) = (self.start(i), self.ends[i] as usize);
        self.text.replace_range(start..end, label);
        checked_end(self.text.len());
        for later in &mut self.ends[i..] {
            *later = checked_end(*later as usize - end + start + label.len());
        }
    }

    /// Closes the label whose text was just appended.
    fn close(&mut self) {
        let end = checked_end(self.text.len());
        self.ends.push(end);
    }
}

fn checked_end(offset: usize) -> u32 {
    u32::try_from(offset).expect("label text exceeds u32::MAX bytes")
}

impl fmt::Debug for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels_of(texts: &[&str]) -> Labels {
        let mut labels = Labels::new();
        for text in texts {
            labels.push(text);
        }
        labels
    }

    #[test]
    fn labels_round_trip_including_empty_ones() {
        let labels = labels_of(&["a", "", "fork@12", "ü"]);
        assert_eq!(labels.len(), 4);
        assert_eq!(labels.text_len(), 1 + 7 + 2);
        assert_eq!(labels.iter().collect::<Vec<_>>(), ["a", "", "fork@12", "ü"]);
        assert_eq!(labels.get(3), Some("ü"));
        assert_eq!(labels.get(4), None);
        assert_eq!(format!("{labels:?}"), r#"["a", "", "fork@12", "ü"]"#);
    }

    #[test]
    fn set_shifts_later_labels_both_ways() {
        let mut labels = labels_of(&["t@1", "t@2", "x"]);
        labels.set(0, "v_off");
        assert_eq!(labels.iter().collect::<Vec<_>>(), ["v_off", "t@2", "x"]);
        labels.set(1, "");
        assert_eq!(labels.iter().collect::<Vec<_>>(), ["v_off", "", "x"]);
        labels.set(2, "zz");
        assert_eq!(labels.iter().collect::<Vec<_>>(), ["v_off", "", "zz"]);
    }

    #[test]
    fn extend_from_offsets_the_appended_labels() {
        let mut labels = labels_of(&["ab"]);
        labels.extend_from(&labels_of(&["c", "", "de"]));
        labels.push_fmt(format_args!("{}@{}", "join", 4));
        assert_eq!(
            labels.iter().collect::<Vec<_>>(),
            ["ab", "c", "", "de", "join@4"]
        );
    }
}
