"""Ray-Data-native inverted-index + BM25 engine (see README.md)."""

# Bump whenever an index-content-affecting change lands (tokenizer
# semantics, codec layout, docstats schema): cached indexes built by an
# older engine are rebuilt instead of served stale.
ENGINE_VERSION = 9  # 9: units/ in every segment, max_content_bytes in UTF-8 bytes
