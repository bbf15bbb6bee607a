package service

import "onepass/internal/engine"

// MapBuffers is the map-output buffer list the service's jobs share.
func (s *Service) MapBuffers() *engine.MapBuffers { return s.bufs }
