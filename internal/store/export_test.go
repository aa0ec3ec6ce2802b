package store

// OpenReaders counts the segment read handles the log engine holds.
func (st *LogStore) OpenReaders() int {
	st.rmu.RLock()
	defer st.rmu.RUnlock()
	return len(st.readers)
}
