package serve

// Epoch returns the sequence number of the currently published epoch.
func (s *Server) Epoch() uint64 { return s.cur.Load().seq }
