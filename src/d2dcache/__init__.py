"""Cache-aided single-hop D2D network simulator and analysis toolkit."""
