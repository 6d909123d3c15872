package rs

import "convexagreement/internal/gf16"

// EncTabs returns c's expanded encode tables (nil until the word engine
// first encodes), so tests outside the package can tell a rebuild from a
// reuse.
func (c *Codec) EncTabs() []gf16.MulTable { return c.encTabs }

// Plans returns the number of cached decode plans.
func (c *Codec) Plans() int { return c.plans.len() }
